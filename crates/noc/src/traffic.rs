//! Per-link traffic accumulation.

use serde::{Deserialize, Serialize};

use crate::network::{LinkId, Network};

/// The link statistics of one [`TrafficMap`], from one pass over its
/// links ([`TrafficMap::scan`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkScan {
    /// The loaded link with the longest transfer time, and that time;
    /// the first such link on a tie. `None` when no link is loaded.
    pub busiest: Option<(LinkId, f64)>,
    /// The longest transfer time of a loaded link (NaN times ignored),
    /// or 0 when no link is loaded.
    pub max_time: f64,
    /// Mean transfer time across *all* links, idle links counting as
    /// zero; 0 on a network without links. The evaluator's congestion
    /// surcharge: a mapping that moves the same bytes over longer paths
    /// raises average utilization and pays queueing delay even when no
    /// single link saturates.
    pub mean_time: f64,
    /// Byte-hops on on-chip links: NoC links and the DRAM port links,
    /// which are on-chip wiring inside the IO die.
    pub noc_bytes: f64,
    /// Byte-hops on D2D links.
    pub d2d_bytes: f64,
}

/// Bytes carried by every link during one pipeline stage.
///
/// The evaluator builds one `TrafficMap` per layer group per sub-batch;
/// the busiest link determines the network contribution to the stage
/// time, and per-kind sums feed the energy model. The default map has
/// no links; [`TrafficMap::reset`] sizes it for a network.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficMap {
    bytes: Vec<f64>,
}

impl TrafficMap {
    /// An empty traffic map for the given network.
    pub fn new(net: &Network) -> Self {
        Self {
            bytes: vec![0.0; net.n_links()],
        }
    }

    /// Zeroes the map and sizes it for `net`: afterwards it equals
    /// [`TrafficMap::new`] of `net` (every link `+0.0`), and it keeps its
    /// buffer, so a map reset once per evaluation allocates nothing.
    pub fn reset(&mut self, net: &Network) {
        self.bytes.clear();
        self.bytes.resize(net.n_links(), 0.0);
    }

    /// Clears all accumulated traffic.
    pub fn clear(&mut self) {
        self.bytes.iter_mut().for_each(|b| *b = 0.0);
    }

    /// Adds `bytes` to one link.
    pub fn add(&mut self, link: LinkId, bytes: f64) {
        self.bytes[link.idx()] += bytes;
    }

    /// Adds `bytes` to every link of a path (or multicast tree).
    pub fn add_path(&mut self, path: &[LinkId], bytes: f64) {
        for l in path {
            self.bytes[l.idx()] += bytes;
        }
    }

    /// Bytes on one link.
    pub fn bytes_on(&self, link: LinkId) -> f64 {
        self.bytes[link.idx()]
    }

    /// Iterator over `(LinkId, bytes)` for loaded links.
    pub fn iter_loaded(&self) -> impl Iterator<Item = (LinkId, f64)> + '_ {
        self.bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| **b > 0.0)
            .map(|(i, b)| (LinkId(i as u32), *b))
    }

    /// Every link statistic the evaluator reads, from one pass over the
    /// links in link order. A link is loaded when its bytes are `> 0.0`;
    /// its transfer time is `bytes / (bw * 1e9)` (bandwidths are GB/s).
    ///
    /// Each sum adds its terms in link order and starts where
    /// `Iterator::sum` starts, at `-0.0`, so a sum over no link (the
    /// D2D bytes of a monolithic network) is `-0.0`, and each field is
    /// bit-identical to the separate pass it replaces.
    pub fn scan(&self, net: &Network) -> LinkScan {
        debug_assert_eq!(self.bytes.len(), net.n_links(), "map of another network");
        let mut scan = LinkScan {
            busiest: None,
            max_time: 0.0,
            mean_time: 0.0,
            noc_bytes: -0.0,
            d2d_bytes: -0.0,
        };
        let mut time_sum = -0.0;
        for (i, (&b, link)) in self.bytes.iter().zip(net.links()).enumerate() {
            if link.kind.is_d2d() {
                scan.d2d_bytes += b;
            } else {
                scan.noc_bytes += b;
            }
            if b > 0.0 {
                let t = b / (link.bw * 1e9);
                if scan.busiest.map_or(true, |(_, bt)| t > bt) {
                    scan.busiest = Some((LinkId(i as u32), t));
                }
                scan.max_time = scan.max_time.max(t);
                time_sum += t;
            }
        }
        if !self.bytes.is_empty() {
            scan.mean_time = time_sum / self.bytes.len() as f64;
        }
        scan
    }

    /// The transfer time (seconds) of the slowest link:
    /// `max(bytes / bw)` ([`LinkScan::max_time`]).
    pub fn bottleneck_time(&self, net: &Network) -> f64 {
        self.scan(net).max_time
    }

    /// The most loaded link and its time, if any traffic exists
    /// ([`LinkScan::busiest`]).
    pub fn busiest(&self, net: &Network) -> Option<(LinkId, f64)> {
        self.scan(net).busiest
    }

    /// Total byte-hops (sum of bytes over all links). The quantity whose
    /// 34.2% reduction the paper reports for Fig. 9.
    pub fn total_hop_bytes(&self) -> f64 {
        self.bytes.iter().sum()
    }

    /// Mean per-link transfer time across *all* links
    /// ([`LinkScan::mean_time`]).
    pub fn mean_link_time(&self, net: &Network) -> f64 {
        self.scan(net).mean_time
    }

    /// Byte-hops on D2D links only ([`LinkScan::d2d_bytes`]).
    pub fn d2d_hop_bytes(&self, net: &Network) -> f64 {
        self.scan(net).d2d_bytes
    }

    /// Byte-hops on on-chip NoC links only ([`LinkScan::noc_bytes`]).
    pub fn noc_hop_bytes(&self, net: &Network) -> f64 {
        self.scan(net).noc_bytes
    }

    /// Gini coefficient of per-link transfer *times* across all links
    /// (idle links count as zero). 0 = perfectly even utilization,
    /// 1 = all traffic on one link. Quantifies the paper's Fig.-9
    /// observation that Gemini's schemes leave "overall network traffic
    /// more evenly distributed".
    pub fn utilization_gini(&self, net: &Network) -> f64 {
        // Degenerate inputs (zero-bandwidth links, infinite byte loads)
        // yield non-finite transfer times; those entries are excluded so
        // the metric stays defined instead of propagating NaN or
        // panicking in the sort below.
        let mut times: Vec<f64> = self
            .bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                if b > 0.0 {
                    b / (net.link(LinkId(i as u32)).bw * 1e9)
                } else {
                    0.0
                }
            })
            .filter(|t| t.is_finite())
            .collect();
        let n = times.len();
        let total: f64 = times.iter().sum();
        if n == 0 || total <= 0.0 {
            return 0.0;
        }
        times.sort_by(f64::total_cmp);
        // G = 2*sum(i*x_i)/(n*sum(x)) - (n+1)/n with 1-based ranks.
        let weighted: f64 = times
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x)
            .sum();
        (2.0 * weighted / (n as f64 * total) - (n as f64 + 1.0) / n as f64).max(0.0)
    }

    /// Peak-to-mean ratio of transfer times over *loaded* links (1.0 =
    /// perfectly flat; large values mean a few "red" hotspot links carry
    /// the traffic). The balance metric behind the paper's Fig.-9
    /// observation that Gemini's red links disappear: unlike
    /// [`TrafficMap::utilization_gini`], it is insensitive to how many
    /// links the scheme leaves idle.
    pub fn peak_to_mean(&self, net: &Network) -> f64 {
        let mut max = 0.0f64;
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for (i, &b) in self.bytes.iter().enumerate() {
            if b > 0.0 {
                let t = b / (net.link(LinkId(i as u32)).bw * 1e9);
                max = max.max(t);
                sum += t;
                n += 1;
            }
        }
        if n == 0 {
            return 1.0;
        }
        max / (sum / n as f64)
    }

    /// Histogram of per-link loads: `bins` equal-width buckets between 0
    /// and the maximum load; bucket 0 counts idle links.
    pub fn load_histogram(&self, bins: usize) -> Vec<usize> {
        assert!(bins >= 2, "need at least an idle and a loaded bucket");
        let max = self.bytes.iter().copied().fold(0.0f64, f64::max);
        let mut hist = vec![0usize; bins];
        for &b in &self.bytes {
            if b <= 0.0 || max <= 0.0 {
                hist[0] += 1;
            } else {
                let i = ((b / max) * (bins - 1) as f64).ceil() as usize;
                hist[i.min(bins - 1)] += 1;
            }
        }
        hist
    }

    /// Adds another traffic map (same network) into this one, scaled.
    pub fn merge_scaled(&mut self, other: &TrafficMap, scale: f64) {
        assert_eq!(
            self.bytes.len(),
            other.bytes.len(),
            "traffic maps from different networks"
        );
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a += b * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_arch::presets;

    /// The separate passes [`TrafficMap::scan`] replaced, written out.
    fn separate_passes(t: &TrafficMap, net: &Network) -> LinkScan {
        let time = |i: usize, b: f64| b / (net.link(LinkId(i as u32)).bw * 1e9);
        let mut busiest: Option<(LinkId, f64)> = None;
        let mut max_time: f64 = 0.0;
        for (i, &b) in t.bytes.iter().enumerate() {
            if b > 0.0 {
                if busiest.map_or(true, |(_, bt)| time(i, b) > bt) {
                    busiest = Some((LinkId(i as u32), time(i, b)));
                }
                max_time = max_time.max(time(i, b));
            }
        }
        let time_sum: f64 = t
            .bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| **b > 0.0)
            .map(|(i, &b)| time(i, b))
            .sum();
        let kind_sum = |d2d: bool| -> f64 {
            t.bytes
                .iter()
                .enumerate()
                .filter(|(i, _)| net.link(LinkId(*i as u32)).kind.is_d2d() == d2d)
                .map(|(_, b)| b)
                .sum()
        };
        LinkScan {
            busiest,
            max_time,
            mean_time: if t.bytes.is_empty() {
                0.0
            } else {
                time_sum / t.bytes.len() as f64
            },
            noc_bytes: kind_sum(false),
            d2d_bytes: kind_sum(true),
        }
    }

    /// The fields by `to_bits`, except that every NaN is one value: Rust
    /// leaves the sign and payload of a NaN result unspecified.
    fn bits(s: &LinkScan) -> (Option<(LinkId, u64)>, [u64; 4]) {
        let b = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
        (
            s.busiest.map(|(l, t)| (l, b(t))),
            [s.max_time, s.mean_time, s.noc_bytes, s.d2d_bytes].map(b),
        )
    }

    #[test]
    fn scan_matches_the_separate_passes_bit_for_bit() {
        let monolithic = gemini_arch::ArchConfig::builder()
            .cores(4, 4)
            .cuts(1, 1)
            .build()
            .unwrap();
        // splitmix64, so a failing case replays from its seed.
        let mut state = 0x5CA7_0001u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let special = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -3.0,
            f64::MIN_POSITIVE,
        ];
        for arch in [presets::g_arch_72(), presets::t_arch(), monolithic] {
            let net = Network::new(&arch);
            let n = net.n_links();
            for case in 0..300 {
                let mut t = TrafficMap::new(&net);
                // Case 0 stays all zero; the rest load a random share of
                // the links, some with NaN, infinite or negative bytes.
                for _ in 0..(case % 7) * n / 6 {
                    let l = LinkId((next() % n as u64) as u32);
                    let r = next();
                    let b = if r % 5 == 0 {
                        special[(r / 5 % special.len() as u64) as usize]
                    } else {
                        (r >> 11) as f64 / (1u64 << 20) as f64
                    };
                    t.add(l, b);
                }
                let (got, want) = (t.scan(&net), separate_passes(&t, &net));
                assert_eq!(bits(&got), bits(&want), "{arch:?} case {case}");
            }
            // Every sum over no link keeps `Iterator::sum`'s -0.0.
            let idle = TrafficMap::new(&net).scan(&net);
            assert_eq!(idle.busiest, None);
            assert_eq!(idle.max_time.to_bits(), 0.0f64.to_bits());
            assert_eq!(idle.mean_time.to_bits(), (-0.0f64).to_bits());
            if net.links().iter().all(|l| !l.kind.is_d2d()) {
                assert_eq!(idle.d2d_bytes.to_bits(), (-0.0f64).to_bits());
                let mut loaded = TrafficMap::new(&net);
                loaded.add(LinkId(0), 5.0);
                assert_eq!(loaded.scan(&net).d2d_bytes.to_bits(), (-0.0f64).to_bits());
            }
        }
    }

    #[test]
    fn bottleneck_prefers_slow_d2d() {
        let arch = presets::g_arch_72(); // NoC 32, D2D 16
        let net = Network::new(&arch);
        let mut t = TrafficMap::new(&net);
        let mut p = Vec::new();
        // Crosses the chiplet boundary between columns 2 and 3.
        net.route_cores(arch.core_at(0, 0), arch.core_at(5, 0), &mut p);
        t.add_path(&p, 1e9);
        let (busiest, time) = t.busiest(&net).unwrap();
        assert!(net.link(busiest).kind.is_d2d());
        assert!((time - 1.0 / 16.0).abs() < 1e-9);
        assert!((t.bottleneck_time(&net) - time).abs() < 1e-12);
    }

    #[test]
    fn hop_byte_accounting() {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        let mut t = TrafficMap::new(&net);
        let mut p = Vec::new();
        net.route_cores(arch.core_at(0, 0), arch.core_at(5, 0), &mut p);
        t.add_path(&p, 100.0);
        assert_eq!(t.total_hop_bytes(), 500.0);
        assert_eq!(t.d2d_hop_bytes(&net), 100.0);
        assert_eq!(t.noc_hop_bytes(&net), 400.0);
    }

    #[test]
    fn merge_scaled_accumulates() {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        let mut a = TrafficMap::new(&net);
        let mut b = TrafficMap::new(&net);
        b.add(crate::network::LinkId(0), 10.0);
        a.merge_scaled(&b, 3.0);
        a.merge_scaled(&b, 1.0);
        assert_eq!(a.bytes_on(crate::network::LinkId(0)), 40.0);
    }

    #[test]
    fn clear_resets() {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        let mut t = TrafficMap::new(&net);
        t.add(crate::network::LinkId(3), 5.0);
        t.clear();
        assert_eq!(t.total_hop_bytes(), 0.0);
        assert!(t.busiest(&net).is_none());
    }

    #[test]
    fn iter_loaded_skips_idle_links() {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        let mut t = TrafficMap::new(&net);
        t.add(crate::network::LinkId(7), 42.0);
        let loaded: Vec<_> = t.iter_loaded().collect();
        assert_eq!(loaded, vec![(crate::network::LinkId(7), 42.0)]);
    }

    #[test]
    fn mean_link_time_averages_over_all_links() {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        let mut t = TrafficMap::new(&net);
        assert_eq!(t.mean_link_time(&net), 0.0);
        // One NoC link with 32 GB: 1 second on that link, averaged over
        // every link of the network.
        let mut p = Vec::new();
        net.route_cores(arch.core_at(0, 0), arch.core_at(1, 0), &mut p);
        t.add_path(&p, 32e9);
        let expected = 1.0 / net.n_links() as f64;
        assert!((t.mean_link_time(&net) - expected).abs() < 1e-12);
    }

    #[test]
    fn gini_extremes() {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        // All traffic on one link: Gini near 1.
        let mut one = TrafficMap::new(&net);
        one.add(crate::network::LinkId(0), 1e9);
        assert!(one.utilization_gini(&net) > 0.95);
        // Equal traffic on every link of equal bandwidth: Gini 0. Use
        // only NoC links so bandwidths match.
        let mut even = TrafficMap::new(&net);
        for i in 0..net.n_links() {
            let l = crate::network::LinkId(i as u32);
            even.add(l, net.link(l).bw * 1e9);
        }
        assert!(even.utilization_gini(&net) < 1e-9);
        // Empty map: 0 by convention.
        let empty = TrafficMap::new(&net);
        assert_eq!(empty.utilization_gini(&net), 0.0);
    }

    #[test]
    fn gini_guards_non_finite_times() {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        let mut t = TrafficMap::new(&net);
        t.add(crate::network::LinkId(0), 1e9);
        t.add(crate::network::LinkId(1), 2e9);
        let finite = t.utilization_gini(&net);
        assert!(finite > 0.0 && finite.is_finite());
        // An infinite load (degenerate architecture or overflowed
        // volume) must not poison the metric: the non-finite entry is
        // excluded and the result stays defined and close to the
        // finite-only value (one fewer link in the denominator).
        t.add(crate::network::LinkId(2), f64::INFINITY);
        let guarded = t.utilization_gini(&net);
        assert!(guarded.is_finite(), "gini must stay defined");
        assert!((0.0..=1.0).contains(&guarded));
        assert!((guarded - finite).abs() < 0.05);
    }

    #[test]
    fn gini_orders_spread_vs_concentrated() {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        let mut concentrated = TrafficMap::new(&net);
        let mut spread = TrafficMap::new(&net);
        let mut p = Vec::new();
        net.route_cores(arch.core_at(0, 0), arch.core_at(5, 0), &mut p);
        concentrated.add_path(&p, 6e9);
        for y in 0..6u32 {
            p.clear();
            net.route_cores(arch.core_at(0, y), arch.core_at(5, y), &mut p);
            spread.add_path(&p, 1e9);
        }
        assert!(
            spread.utilization_gini(&net) < concentrated.utilization_gini(&net),
            "spreading the same bytes over rows must lower the Gini"
        );
    }

    #[test]
    fn peak_to_mean_detects_hotspots() {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        // Flat: every loaded link equal -> ratio 1. A column route on
        // the (2,1)-cut fabric never crosses the chiplet boundary, so
        // all five links share the NoC bandwidth.
        let mut flat = TrafficMap::new(&net);
        let mut p = Vec::new();
        net.route_cores(arch.core_at(0, 0), arch.core_at(0, 5), &mut p);
        assert!(p.iter().all(|&l| !net.link(l).kind.is_d2d()));
        flat.add_path(&p, 1e9);
        assert!((flat.peak_to_mean(&net) - 1.0).abs() < 1e-9);
        // Hotspot: one link gets 10x the rest -> peak 10 over mean 2.8.
        let mut hot = flat.clone();
        hot.add(p[0], 9e9);
        assert!(hot.peak_to_mean(&net) > 2.0);
        // Empty: 1 by convention.
        assert_eq!(TrafficMap::new(&net).peak_to_mean(&net), 1.0);
    }

    #[test]
    fn histogram_counts_all_links() {
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        let mut t = TrafficMap::new(&net);
        t.add(crate::network::LinkId(0), 100.0);
        t.add(crate::network::LinkId(1), 50.0);
        let h = t.load_histogram(4);
        assert_eq!(h.iter().sum::<usize>(), net.n_links());
        assert_eq!(h[3], 1, "the max-load link lands in the top bucket");
        assert_eq!(h[2], 1, "the half-load link lands in the middle");
        assert_eq!(h[0], net.n_links() - 2, "everything else is idle");
    }

    #[test]
    fn mean_link_time_rewards_shorter_paths() {
        // Same bytes over a longer path => higher mean utilization: the
        // property the evaluator's congestion surcharge relies on.
        let arch = presets::g_arch_72();
        let net = Network::new(&arch);
        let mut short = TrafficMap::new(&net);
        let mut long = TrafficMap::new(&net);
        let mut p = Vec::new();
        net.route_cores(arch.core_at(0, 0), arch.core_at(1, 0), &mut p);
        short.add_path(&p, 1e9);
        p.clear();
        net.route_cores(arch.core_at(0, 0), arch.core_at(5, 5), &mut p);
        long.add_path(&p, 1e9);
        assert!(long.mean_link_time(&net) > short.mean_link_time(&net));
    }
}
