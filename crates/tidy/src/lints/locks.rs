//! Inter-procedural lock-order discipline for the service layer.
//!
//! The daemon holds several mutex-guarded states: the request memo,
//! the bounded request queue and each connection's write half. A
//! deadlock needs two locks held in conflicting orders on two threads —
//! exactly the kind of bug that survives every single-threaded test and
//! appears under production load. This lint makes acquisition order a
//! statically-checked property:
//!
//! 1. **Acquisition sites.** Every `recv.lock()` call in every
//!    service-layer function is extracted, its mutex classified by
//!    receiver name (the defining file disambiguates the shared field
//!    name `inner`), and its guard given a conservative lifetime: a
//!    `let`-bound guard lives to the end of its enclosing block (or an
//!    explicit `drop(guard)`), a temporary to the end of its
//!    statement, an `if let`/`while let` condition guard to the end of
//!    that block.
//! 2. **Inter-procedural edges.** Function summaries (the set of
//!    mutexes a function may transitively acquire) are propagated to a
//!    fixpoint over the call graph; calls resolve by name across the
//!    scanned file set. An edge `A -> B` is recorded when `B` is
//!    acquired — directly or through a call — while a guard of `A` is
//!    live.
//! 3. **Verdicts.** Any cycle in the acquisition-order graph is a
//!    [`LOCK_CYCLE`] (a self-edge is a length-1 cycle:
//!    `std::sync::Mutex` is not reentrant, so re-acquiring a held
//!    mutex self-deadlocks). Holding a cache mutex (any receiver named
//!    `*cache*`) and the request-queue mutex *together*, in either
//!    order, is a [`LOCK_NESTING`] — the queue mutex sits under every
//!    push/pop on the hot accept path and must never wait on an
//!    evaluation-length cache hold.
//!
//! The model is deliberately conservative (guards may be modeled as
//! living slightly longer than they do; calls resolve by name, not by
//! type); a justified false positive is waived per site, with a
//! reason, like every other lint here.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::source::{functions, match_brace, SourceFile};

/// A cycle in the mutex acquisition-order graph.
pub const LOCK_CYCLE: &str = "lock-cycle";
/// A cache mutex and the request-queue mutex held together.
pub const LOCK_NESTING: &str = "lock-nesting";

/// Mutex classes the nesting check names explicitly.
const CACHE_CLASS: &str = "cache";
const QUEUE_CLASS: &str = "queue";

/// Identifiers that look like calls but must not become call-graph
/// edges (tuple-struct constructors and control keywords).
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "Some", "Ok", "Err", "None", "Box", "Vec",
    "String", "drop",
];

/// Classifies a `.lock()` receiver into a stable mutex identity.
fn mutex_class(file: &str, recv: &str) -> String {
    let stem = file
        .rsplit(['/', '\\'])
        .next()
        .unwrap_or(file)
        .trim_end_matches(".rs");
    let r = recv.to_ascii_lowercase();
    if r.contains("cache") {
        CACHE_CLASS.to_string()
    } else if r.contains("queue") {
        QUEUE_CLASS.to_string()
    } else if r == "inner" {
        if stem.contains("queue") {
            QUEUE_CLASS.to_string()
        } else {
            format!("{stem}.inner")
        }
    } else {
        r
    }
}

/// One thing that happens, in token order, inside a function body.
#[derive(Debug)]
enum Event {
    /// `recv.lock()` — mutex class, site line, guard-death token index.
    Acquire {
        class: String,
        line: u32,
        live_until: usize,
    },
    /// A call that may acquire locks (resolved by name).
    Call { callee: String, line: u32 },
}

/// One scanned function: identity plus its positioned event list.
struct FnInfo {
    file: String,
    name: String,
    /// `(token_index, event)` pairs in token order.
    events: Vec<(usize, Event)>,
}

/// Where an acquisition-order edge was observed.
#[derive(Debug, Clone)]
struct EdgeSite {
    file: String,
    line: u32,
    func: String,
    note: String,
}

/// Extracts the positioned event list of one function body.
fn body_events(sf: &SourceFile, open: usize, close: usize) -> Vec<(usize, Event)> {
    let toks = sf.toks();
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        // `recv . lock ( )`
        if t.is_ident("lock")
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let class = mutex_class(&sf.path, &toks[i - 2].text);
            out.push((
                i,
                Event::Acquire {
                    class,
                    line: t.line,
                    live_until: guard_scope_end(toks, i, close),
                },
            ));
            i += 2;
            continue;
        }
        // Call: `name (` — method or free call; `lock` handled above.
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !NON_CALL_IDENTS.contains(&t.text.as_str())
        {
            out.push((
                i,
                Event::Call {
                    callee: t.text.clone(),
                    line: t.line,
                },
            ));
        }
        i += 1;
    }
    out
}

/// Token index at which the guard produced by the `.lock()` at `at`
/// dies, under the conservative scope model in the module docs.
fn guard_scope_end(toks: &[Tok], at: usize, body_close: usize) -> usize {
    // Start of the statement: just past the last `;`, `{` or `}`
    // before the lock site.
    let mut stmt_start = 0usize;
    let mut j = at;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            stmt_start = j + 1;
            break;
        }
    }
    let stmt = &toks[stmt_start..at];
    let is_cond = stmt
        .first()
        .is_some_and(|t| t.is_ident("if") || t.is_ident("while"));
    if is_cond {
        // `if let Ok(g) = m.lock()` — the guard lives through the
        // conditional's block: find its `{` and match it.
        let mut k = at;
        while k < body_close {
            if toks[k].is_punct('{') {
                return match_brace(toks, k).min(body_close);
            }
            if toks[k].is_punct(';') {
                return k; // condition without a block (malformed; bail)
            }
            k += 1;
        }
        return body_close;
    }
    if stmt.iter().any(|t| t.is_ident("let")) {
        // Named guard: lives to the end of the enclosing block, unless
        // an explicit same-depth `drop(name)` kills it earlier. The
        // guard name is the first identifier after `let` (skipping
        // `mut`).
        let name = stmt
            .iter()
            .skip_while(|t| !t.is_ident("let"))
            .skip(1)
            .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
            .map(|t| t.text.clone());
        let mut depth = 0i32;
        let mut k = at;
        while k < body_close {
            let t = &toks[k];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            } else if depth == 0
                && t.is_ident("drop")
                && name.as_deref().is_some_and(|n| is_drop_of(toks, k, n))
            {
                return k;
            }
            k += 1;
        }
        return body_close;
    }
    // Temporary guard: lives to the end of the statement (next `;` at
    // the current depth).
    let mut depth = 0i32;
    let mut k = at;
    while k < body_close {
        let t = &toks[k];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return k;
            }
        } else if t.is_punct(';') && depth == 0 {
            return k;
        }
        k += 1;
    }
    body_close
}

/// Whether tokens at `k` spell `drop ( name )`.
fn is_drop_of(toks: &[Tok], k: usize, name: &str) -> bool {
    toks.get(k + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(k + 2).is_some_and(|t| t.is_ident(name))
        && toks.get(k + 3).is_some_and(|t| t.is_punct(')'))
}

/// Runs the acquisition-order analysis over a set of files.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let mut fns: Vec<FnInfo> = Vec::new();
    for sf in files {
        for f in functions(sf) {
            fns.push(FnInfo {
                file: sf.path.clone(),
                name: f.name.clone(),
                events: body_events(sf, f.body_open, f.body_close),
            });
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(i);
    }

    // Fixpoint: lockset(f) = direct acquisitions ∪ callee locksets.
    let mut locksets: Vec<BTreeSet<String>> = fns
        .iter()
        .map(|f| {
            f.events
                .iter()
                .filter_map(|(_, e)| match e {
                    Event::Acquire { class, .. } => Some(class.clone()),
                    Event::Call { .. } => None,
                })
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for (_, e) in &fns[i].events {
                if let Event::Call { callee, .. } = e {
                    for &c in by_name.get(callee.as_str()).into_iter().flatten() {
                        add.extend(locksets[c].iter().cloned());
                    }
                }
            }
            for a in add {
                changed |= locksets[i].insert(a);
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: walk each function in token order with a live-guard set.
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
    for f in &fns {
        // (class, dies_at_token, acquired_line)
        let mut live: Vec<(String, usize, u32)> = Vec::new();
        for (pos, e) in &f.events {
            live.retain(|(_, dies, _)| dies > pos);
            match e {
                Event::Acquire {
                    class,
                    line,
                    live_until,
                } => {
                    for (held, _, held_line) in &live {
                        edges
                            .entry((held.clone(), class.clone()))
                            .or_insert_with(|| EdgeSite {
                                file: f.file.clone(),
                                line: *line,
                                func: f.name.clone(),
                                note: format!(
                                    "{held} held since line {held_line}, {class} acquired here"
                                ),
                            });
                    }
                    live.push((class.clone(), *live_until, *line));
                }
                Event::Call { callee, line } => {
                    if live.is_empty() {
                        continue;
                    }
                    for &c in by_name.get(callee.as_str()).into_iter().flatten() {
                        for acquired in &locksets[c] {
                            for (held, _, held_line) in &live {
                                edges
                                    .entry((held.clone(), acquired.clone()))
                                    .or_insert_with(|| EdgeSite {
                                        file: f.file.clone(),
                                        line: *line,
                                        func: f.name.clone(),
                                        note: format!(
                                            "{held} held since line {held_line}, {acquired} \
                                             acquired via call to {callee}"
                                        ),
                                    });
                            }
                        }
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    // Forbidden pair: cache and queue ever held together.
    for ((a, b), site) in &edges {
        let pair = (a.as_str(), b.as_str());
        if pair == (CACHE_CLASS, QUEUE_CLASS) || pair == (QUEUE_CLASS, CACHE_CLASS) {
            out.push(Diagnostic::new(
                &site.file,
                site.line,
                LOCK_NESTING,
                format!(
                    "in `{}`: cache and queue mutexes held together ({}); the queue \
                     lock guards the hot accept path and must never nest with an \
                     evaluation-length cache hold",
                    site.func, site.note
                ),
            ));
        }
    }
    // Cycles (self-edges are length-1 cycles).
    for cycle in cycles(&edges) {
        let first = (
            cycle[0].clone(),
            cycle.get(1).cloned().unwrap_or_else(|| cycle[0].clone()),
        );
        let site = &edges[&first];
        let path: Vec<&str> = cycle
            .iter()
            .chain(std::iter::once(&cycle[0]))
            .map(|s| s.as_str())
            .collect();
        out.push(Diagnostic::new(
            &site.file,
            site.line,
            LOCK_CYCLE,
            format!(
                "mutex acquisition-order cycle {} (first edge in `{}`: {}); a second \
                 thread taking these in the opposite order deadlocks",
                path.join(" -> "),
                site.func,
                site.note
            ),
        ));
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));
    out.dedup();
    out
}

/// Enumerates cycles, each reported once starting from its
/// lexicographically smallest node. The graphs here have a handful of
/// nodes, so a DFS per start node is plenty.
fn cycles(edges: &BTreeMap<(String, String), EdgeSite>) -> Vec<Vec<String>> {
    let nodes: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let mut found = Vec::new();
    for &start in &nodes {
        let mut stack = vec![start.clone()];
        if dfs(start, start, edges, &mut stack) && stack.iter().min() == Some(start) {
            found.push(stack);
        }
    }
    found
}

/// DFS from `node` looking for a path back to `start`; on success the
/// cycle's nodes are left in `stack`.
fn dfs(
    node: &str,
    start: &str,
    edges: &BTreeMap<(String, String), EdgeSite>,
    stack: &mut Vec<String>,
) -> bool {
    for (a, b) in edges.keys() {
        if a != node {
            continue;
        }
        if b == start {
            return true;
        }
        if stack.contains(b) {
            continue;
        }
        stack.push(b.clone());
        if dfs(b, start, edges, stack) {
            return true;
        }
        stack.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let sfs: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        let refs: Vec<&SourceFile> = sfs.iter().collect();
        check(&refs)
    }

    #[test]
    fn opposite_orders_in_two_functions_is_a_cycle() {
        let diags = run(&[(
            "svc.rs",
            "fn a(s: &S) { let g = s.cache.lock().unwrap(); s.queue.lock().unwrap().push(1); }\n\
             fn b(s: &S) { let g = s.queue.lock().unwrap(); s.cache.lock().unwrap().get(2); }\n",
        )]);
        assert!(
            diags.iter().any(|d| d.lint == LOCK_CYCLE),
            "expected a lock-cycle, got {diags:?}"
        );
        // Both nestings also trip the forbidden-pair rule.
        assert_eq!(diags.iter().filter(|d| d.lint == LOCK_NESTING).count(), 2);
    }

    #[test]
    fn self_reacquisition_is_a_self_cycle() {
        let diags = run(&[(
            "svc.rs",
            "fn a(s: &S) { let g = s.memo.lock().unwrap(); let h = s.memo.lock().unwrap(); }\n",
        )]);
        assert!(
            diags
                .iter()
                .any(|d| d.lint == LOCK_CYCLE && d.message.contains("memo")),
            "{diags:?}"
        );
    }

    #[test]
    fn interprocedural_nesting_is_found_through_a_call() {
        let diags = run(&[(
            "svc.rs",
            "fn outer(s: &S) { let g = s.cache.lock().unwrap(); helper(s); }\n\
             fn helper(s: &S) { s.queue.lock().unwrap().pop(); }\n",
        )]);
        assert!(diags.iter().any(|d| d.lint == LOCK_NESTING), "{diags:?}");
    }

    #[test]
    fn scoped_and_dropped_guards_do_not_nest() {
        // Guard released by a block scope, then by drop(), before the
        // second lock — no edge, no diagnostics.
        let diags = run(&[(
            "svc.rs",
            "fn a(s: &S) { { let g = s.cache.lock().unwrap(); g.touch(); } \
             s.queue.lock().unwrap().push(1); }\n\
             fn b(s: &S) { let g = s.queue.lock().unwrap(); drop(g); \
             s.cache.lock().unwrap().get(2); }\n",
        )]);
        assert_eq!(diags, vec![], "scoped guards must not create edges");
    }

    #[test]
    fn if_let_guard_scopes_to_its_block() {
        // The if-let condition guard dies at the end of the if block;
        // the queue lock after it is unrelated.
        let diags = run(&[(
            "svc.rs",
            "fn a(s: &S) { if let Ok(g) = s.cache.lock() { g.touch(); } \
             s.queue.lock().unwrap().push(1); }\n",
        )]);
        assert_eq!(diags, vec![], "{diags:?}");
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let diags = run(&[(
            "svc.rs",
            "fn a(s: &S) { s.cache.lock().unwrap().touch(); \
             s.queue.lock().unwrap().push(1); }\n",
        )]);
        assert_eq!(diags, vec![], "{diags:?}");
    }

    #[test]
    fn consistent_order_across_functions_is_fine() {
        let diags = run(&[(
            "svc.rs",
            "fn a(s: &S) { let g = s.writer.lock().unwrap(); s.memo.lock().unwrap().get(1); }\n\
             fn b(s: &S) { let g = s.writer.lock().unwrap(); s.memo.lock().unwrap().get(2); }\n",
        )]);
        assert_eq!(diags, vec![], "same order everywhere is not a cycle");
    }
}
