//! Max-min fair bandwidth allocation (progressive filling).
//!
//! Active flows traverse one or more resources. The allocator assigns each
//! flow a rate such that the allocation is *max-min fair*: no flow can be
//! given more bandwidth without taking bandwidth from a flow that already has
//! less. This is the standard fluid model for TCP-like sharing of disks and
//! links, and it is what produces contention effects in the simulator: six
//! readers hitting one disk each get roughly one sixth of its (degraded)
//! aggregate bandwidth.
//!
//! The algorithm is classic progressive filling: repeatedly find the
//! bottleneck resource — the one whose remaining capacity divided by its
//! number of unfrozen flows is smallest — freeze those flows at that fair
//! share, charge their rate to every resource on their path, and repeat.
//!
//! Two entry points exist:
//!
//! * [`allocate_rates`] — the convenient slice-in/`Vec`-out form, used by
//!   tests, benches, and the retained dense reference engine;
//! * [`RateScratch`] — a reusable-buffer form the incremental engine drives
//!   once per *connected component* of the flow/resource sharing graph. All
//!   intermediate state lives in buffers owned by the caller, so steady-state
//!   rate recomputation performs no heap allocation.
//!
//! Max-min allocations decompose exactly over connected components: a flow's
//! rate depends only on flows it (transitively) shares a resource with. The
//! scoped form exploits that, and it is written so that the floating-point
//! arithmetic — the order of bottleneck selection, freezing, and capacity
//! subtraction within a component — is identical to running the classic
//! global algorithm over the whole flow set. Rates therefore come out
//! *bit-identical* whether computed globally or per component.

/// A flow, described by the resources it traverses and an optional
/// per-flow rate ceiling.
///
/// Indices refer to the capacity slice passed to [`allocate_rates`].
/// The ceiling models end-to-end protocol limits that bind before any
/// shared resource does — e.g. a single HDFS remote-read stream tops out
/// near 32 MB/s on the paper's testbed even though disk and NIC could
/// carry more.
#[derive(Debug, Clone)]
pub struct FlowPath {
    /// Resource indices this flow traverses (deduplicated by the caller).
    pub resources: Vec<usize>,
    /// Per-flow rate ceiling in bytes/second (`f64::INFINITY` = none).
    pub rate_cap: f64,
}

/// Reusable progressive-filling state.
///
/// Resource-indexed buffers (`remaining`, `unfrozen`) are sized to the
/// largest resource id ever pushed and addressed by *global* resource
/// index, so a caller can solve a sparse component without remapping ids.
/// Flow-indexed buffers are local to one solve. Nothing is freed between
/// solves; after warm-up, [`RateScratch::fill`] allocates nothing.
///
/// # Protocol
///
/// 1. [`begin`](RateScratch::begin) — reset the per-solve state;
/// 2. [`push_resource`](RateScratch::push_resource) for every resource in
///    the component, **in ascending id order**, with its aggregate capacity;
/// 3. [`push_flow`](RateScratch::push_flow) for every flow, **in ascending
///    flow-id order**, referencing only pushed resources;
/// 4. [`fill`](RateScratch::fill) — returns one rate per flow, in push
///    order.
///
/// The ordering requirements make the solve reproduce the classic global
/// algorithm's tie-breaking (lowest resource id wins bottleneck ties,
/// flows freeze in ascending id order), which keeps results bit-identical
/// with [`allocate_rates`] over the same component.
#[derive(Debug, Default)]
pub struct RateScratch {
    /// Remaining capacity per resource (global index).
    remaining: Vec<f64>,
    /// Unfrozen-flow count per resource (global index).
    unfrozen: Vec<u32>,
    /// Stamp marking which resources were pushed for the current solve.
    res_stamp: Vec<u32>,
    /// Current solve's stamp value.
    stamp: u32,
    /// Resources of the current solve, ascending.
    res_list: Vec<u32>,
    /// Per-flow rate cap, in push order.
    flow_caps: Vec<f64>,
    /// Flattened flow paths (global resource indices).
    path_flat: Vec<u32>,
    /// CSR offsets into `path_flat`; `len == flows + 1`.
    path_off: Vec<u32>,
    /// Per-flow frozen flag for the current solve.
    frozen: Vec<bool>,
    /// Output rates, in flow push order.
    rates: Vec<f64>,
    /// `(cap, flow_slot)` for finitely-capped flows, sorted ascending.
    caps_sorted: Vec<(f64, u32)>,
}

impl RateScratch {
    /// Creates an empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new solve, clearing per-solve state but keeping buffers.
    pub fn begin(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Extremely rare wrap: invalidate all stale stamps at once.
            self.res_stamp.iter_mut().for_each(|s| *s = u32::MAX);
            self.stamp = 1;
        }
        self.res_list.clear();
        self.flow_caps.clear();
        self.path_flat.clear();
        self.path_off.clear();
        self.path_off.push(0);
    }

    /// Registers resource `r` with its aggregate `capacity` (bytes/second,
    /// already degraded for concurrency). Resources must be pushed in
    /// ascending id order.
    pub fn push_resource(&mut self, r: usize, capacity: f64) {
        if r >= self.remaining.len() {
            self.remaining.resize(r + 1, 0.0);
            self.unfrozen.resize(r + 1, 0);
            self.res_stamp.resize(r + 1, 0);
        }
        debug_assert!(
            self.res_list.last().map_or(true, |&p| (p as usize) < r),
            "resources must be pushed in ascending order"
        );
        self.remaining[r] = capacity;
        self.unfrozen[r] = 0;
        self.res_stamp[r] = self.stamp;
        self.res_list.push(r as u32);
    }

    /// Registers a flow traversing `path` (global resource indices, each
    /// previously pushed) with the given rate ceiling. Flows must be pushed
    /// in ascending flow-id order.
    pub fn push_flow(&mut self, path: &[usize], rate_cap: f64) {
        debug_assert!(rate_cap > 0.0, "rate caps must be positive");
        for &r in path {
            debug_assert!(
                r < self.res_stamp.len() && self.res_stamp[r] == self.stamp,
                "flow references resource {r} not pushed for this solve"
            );
            debug_assert!(
                self.remaining[r] > 0.0,
                "resource {r} has non-positive capacity"
            );
            self.path_flat.push(r as u32);
        }
        self.flow_caps.push(rate_cap);
        self.path_off.push(self.path_flat.len() as u32);
    }

    /// Runs progressive filling and returns one rate per pushed flow, in
    /// push order. Flows with empty paths get their `rate_cap`
    /// (`f64::INFINITY` when uncapped).
    pub fn fill(&mut self) -> &[f64] {
        let nf = self.flow_caps.len();
        let RateScratch {
            remaining,
            unfrozen,
            res_list,
            flow_caps,
            path_flat,
            path_off,
            frozen,
            rates,
            caps_sorted,
            ..
        } = self;
        let path = |fi: usize| &path_flat[path_off[fi] as usize..path_off[fi + 1] as usize];

        rates.clear();
        rates.resize(nf, 0.0);
        frozen.clear();
        frozen.resize(nf, false);
        caps_sorted.clear();
        let mut n_unfrozen = 0usize;

        for fi in 0..nf {
            let cap = flow_caps[fi];
            if path(fi).is_empty() {
                rates[fi] = cap; // INFINITY when uncapped
                frozen[fi] = true;
            } else {
                n_unfrozen += 1;
                for &r in path(fi) {
                    unfrozen[r as usize] += 1;
                }
                if cap.is_finite() {
                    caps_sorted.push((cap, fi as u32));
                }
            }
        }
        // Ties sort by flow slot so cap-limited freezes subtract capacity
        // in ascending flow order — the same order the global algorithm's
        // flow sweep uses.
        caps_sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut cap_ptr = 0usize;

        while n_unfrozen > 0 {
            // Water-filling: the level rises until either a resource
            // saturates (its fair share is the minimum) or a flow hits its
            // rate cap. Ascending iteration keeps bottleneck ties on the
            // lowest resource id.
            let mut bottleneck: Option<(u32, f64)> = None;
            for &r in res_list.iter() {
                let ri = r as usize;
                if unfrozen[ri] == 0 {
                    continue;
                }
                let share = (remaining[ri] / unfrozen[ri] as f64).max(0.0);
                match bottleneck {
                    Some((_, best)) if share >= best => {}
                    _ => bottleneck = Some((r, share)),
                }
            }
            let (br, share) = bottleneck.expect("unfrozen flows must traverse some resource");

            // Smallest cap among unfrozen flows, via the sorted cap list:
            // entries whose flow froze in an earlier resource-limited step
            // are skipped (each at most once across the whole solve). When
            // no flow is capped the list is empty and the cap branch below
            // is never entered — the common uncapped case pays nothing.
            while cap_ptr < caps_sorted.len() && frozen[caps_sorted[cap_ptr].1 as usize] {
                cap_ptr += 1;
            }
            let min_cap = caps_sorted
                .get(cap_ptr)
                .map_or(f64::INFINITY, |&(cap, _)| cap);

            let mut froze_any = false;
            if min_cap < share {
                // Cap-limited step: freeze every unfrozen flow whose cap
                // binds at or below the current minimum level. Only flows
                // at exactly `min_cap` qualify (it is the minimum), and the
                // sort order visits them in ascending flow order.
                let mut p = cap_ptr;
                while p < caps_sorted.len() && caps_sorted[p].0 <= min_cap {
                    let (rate, slot) = caps_sorted[p];
                    p += 1;
                    let fi = slot as usize;
                    if frozen[fi] {
                        continue;
                    }
                    frozen[fi] = true;
                    froze_any = true;
                    n_unfrozen -= 1;
                    rates[fi] = rate;
                    for &r in path(fi) {
                        let ri = r as usize;
                        remaining[ri] = (remaining[ri] - rate).max(0.0);
                        unfrozen[ri] -= 1;
                    }
                }
            } else {
                // Resource-limited step: freeze every unfrozen flow through
                // the bottleneck at the fair share, charging all its
                // resources.
                for fi in 0..nf {
                    if frozen[fi] || !path(fi).contains(&br) {
                        continue;
                    }
                    let rate = share.min(flow_caps[fi]);
                    frozen[fi] = true;
                    froze_any = true;
                    n_unfrozen -= 1;
                    rates[fi] = rate;
                    for &r in path(fi) {
                        let ri = r as usize;
                        remaining[ri] = (remaining[ri] - rate).max(0.0);
                        unfrozen[ri] -= 1;
                    }
                }
            }
            debug_assert!(froze_any, "progressive filling must make progress");
            if !froze_any {
                break; // defensive: avoid an infinite loop in release builds
            }
        }

        rates
    }
}

/// # Example
///
/// ```
/// use opass_simio::fairshare::{allocate_rates, FlowPath};
///
/// // Two flows share a 100 B/s link; one is capped at 20 B/s, so the
/// // other soaks up the remaining 80.
/// let flows = [
///     FlowPath { resources: vec![0], rate_cap: 20.0 },
///     FlowPath { resources: vec![0], rate_cap: f64::INFINITY },
/// ];
/// let rates = allocate_rates(&flows, &[100.0]);
/// assert_eq!(rates, vec![20.0, 80.0]);
/// ```
///
/// Computes max-min fair rates for `flows` over resources with the given
/// aggregate `capacities` (bytes/second, already degraded for concurrency).
///
/// Returns one rate per flow, in flow order. Flows with empty paths are
/// given `f64::INFINITY` (they complete instantly; the engine treats such
/// flows as pure latency).
///
/// This is the allocating convenience form of [`RateScratch`]; hot paths
/// hold a scratch across solves and call [`RateScratch::fill`], as the
/// engine does.
///
/// # Panics
///
/// Panics (in debug builds) if a flow references a resource index out of
/// bounds, or if any capacity is non-positive while flows traverse it.
pub fn allocate_rates(flows: &[FlowPath], capacities: &[f64]) -> Vec<f64> {
    let mut scratch = RateScratch::new();
    let mut rates = Vec::new();
    allocate_rates_into(flows, capacities, &mut scratch, &mut rates);
    rates
}

/// Like [`allocate_rates`], but borrowing reusable buffers: intermediate
/// state lives in `scratch` and results land in `rates` (cleared first).
/// After warm-up the call performs no heap allocation.
fn allocate_rates_into(
    flows: &[FlowPath],
    capacities: &[f64],
    scratch: &mut RateScratch,
    rates: &mut Vec<f64>,
) {
    scratch.begin();
    for (r, &cap) in capacities.iter().enumerate() {
        scratch.push_resource(r, cap);
    }
    for flow in flows {
        #[cfg(debug_assertions)]
        for &r in &flow.resources {
            debug_assert!(
                r < capacities.len(),
                "flow references resource {r} out of {}",
                capacities.len()
            );
        }
        scratch.push_flow(&flow.resources, flow.rate_cap);
    }
    rates.clear();
    rates.extend_from_slice(scratch.fill());
}

/// Verifies that a rate allocation respects every resource capacity, within
/// a relative tolerance. Used by tests and debug assertions.
pub fn respects_capacities(
    flows: &[FlowPath],
    capacities: &[f64],
    rates: &[f64],
    rel_tol: f64,
) -> bool {
    let mut used = vec![0.0_f64; capacities.len()];
    for (flow, &rate) in flows.iter().zip(rates) {
        if !rate.is_finite() {
            continue;
        }
        for &r in &flow.resources {
            used[r] += rate;
        }
    }
    used.iter()
        .zip(capacities)
        .all(|(&u, &c)| u <= c * (1.0 + rel_tol) + f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(rs: &[usize]) -> FlowPath {
        FlowPath {
            resources: rs.to_vec(),
            rate_cap: f64::INFINITY,
        }
    }

    fn capped(rs: &[usize], cap: f64) -> FlowPath {
        FlowPath {
            resources: rs.to_vec(),
            rate_cap: cap,
        }
    }

    #[test]
    fn empty_input() {
        assert!(allocate_rates(&[], &[100.0]).is_empty());
    }

    #[test]
    fn single_flow_gets_bottleneck_capacity() {
        let flows = [path(&[0, 1])];
        let rates = allocate_rates(&flows, &[70.0, 117.0]);
        assert!((rates[0] - 70.0).abs() < 1e-9);
    }

    #[test]
    fn equal_flows_share_equally() {
        let flows = [path(&[0]), path(&[0]), path(&[0])];
        let rates = allocate_rates(&flows, &[90.0]);
        for &r in &rates {
            assert!((r - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn classic_maxmin_example() {
        // Three flows: A on link0 only, B on link0+link1, C on link1 only.
        // link0 cap 10, link1 cap 4. Bottleneck is link1 (share 2):
        // B and C get 2; A then gets the rest of link0 = 8.
        let flows = [path(&[0]), path(&[0, 1]), path(&[1])];
        let rates = allocate_rates(&flows, &[10.0, 4.0]);
        assert!((rates[1] - 2.0).abs() < 1e-9, "B={}", rates[1]);
        assert!((rates[2] - 2.0).abs() < 1e-9, "C={}", rates[2]);
        assert!((rates[0] - 8.0).abs() < 1e-9, "A={}", rates[0]);
    }

    #[test]
    fn empty_path_is_infinite() {
        let flows = [path(&[])];
        let rates = allocate_rates(&flows, &[1.0]);
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn allocation_respects_capacities() {
        let flows = [
            path(&[0, 2]),
            path(&[0, 1]),
            path(&[1, 2]),
            path(&[2]),
            path(&[0]),
        ];
        let caps = [50.0, 30.0, 20.0];
        let rates = allocate_rates(&flows, &caps);
        assert!(respects_capacities(&flows, &caps, &rates, 1e-9));
    }

    #[test]
    fn work_conserving_on_single_resource() {
        // All capacity of a shared resource is handed out.
        let flows = [path(&[0]), path(&[0]), path(&[0]), path(&[0])];
        let caps = [100.0];
        let rates = allocate_rates(&flows, &caps);
        let total: f64 = rates.iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let flows = [path(&[0]), path(&[1])];
        let rates = allocate_rates(&flows, &[10.0, 20.0]);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn rate_cap_binds_before_resources() {
        let flows = [capped(&[0], 3.0)];
        let rates = allocate_rates(&flows, &[100.0]);
        assert!((rates[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn capped_flow_releases_bandwidth_to_others() {
        // Two flows share a 10 B/s link; one is capped at 2: the other
        // gets the remaining 8 instead of a plain 5/5 split.
        let flows = [capped(&[0], 2.0), path(&[0])];
        let rates = allocate_rates(&flows, &[10.0]);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cap_above_fair_share_is_inert() {
        let flows = [capped(&[0], 50.0), path(&[0])];
        let rates = allocate_rates(&flows, &[10.0]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn many_caps_still_respect_capacities() {
        let flows = [
            capped(&[0, 1], 4.0),
            capped(&[0], 3.0),
            path(&[1]),
            capped(&[0, 1], 100.0),
        ];
        let caps = [8.0, 6.0];
        let rates = allocate_rates(&flows, &caps);
        assert!(respects_capacities(&flows, &caps, &rates, 1e-9));
        for (f, &r) in flows.iter().zip(&rates) {
            assert!(r <= f.rate_cap + 1e-9);
        }
    }

    #[test]
    fn empty_path_with_cap_runs_at_cap() {
        let flows = [capped(&[], 7.0)];
        let rates = allocate_rates(&flows, &[]);
        assert!((rates[0] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        // Solving different problems through one scratch gives the same
        // answers as fresh Vec-returning calls — stale state never leaks.
        let mut scratch = RateScratch::new();
        let mut rates = Vec::new();
        let problems: Vec<(Vec<FlowPath>, Vec<f64>)> = vec![
            (vec![path(&[0]), path(&[0, 1])], vec![10.0, 4.0]),
            (vec![capped(&[0], 2.0), path(&[0])], vec![10.0]),
            (vec![path(&[1]), path(&[])], vec![5.0, 20.0]),
            (vec![path(&[0]), path(&[0]), path(&[0])], vec![90.0]),
        ];
        for (flows, caps) in &problems {
            allocate_rates_into(flows, caps, &mut scratch, &mut rates);
            assert_eq!(rates, allocate_rates(flows, caps));
        }
    }

    #[test]
    fn scoped_component_matches_global_solve() {
        // Two disjoint components solved globally vs. one at a time
        // through the scoped API: identical rates.
        let flows = [path(&[0]), path(&[0, 1]), capped(&[2], 3.0), path(&[2, 3])];
        let caps = [10.0, 4.0, 8.0, 20.0];
        let global = allocate_rates(&flows, &caps);

        let mut scratch = RateScratch::new();
        // Component {0,1} x resources {0,1}.
        scratch.begin();
        scratch.push_resource(0, caps[0]);
        scratch.push_resource(1, caps[1]);
        scratch.push_flow(&flows[0].resources, flows[0].rate_cap);
        scratch.push_flow(&flows[1].resources, flows[1].rate_cap);
        let a = scratch.fill().to_vec();
        // Component {2,3} x resources {2,3}.
        scratch.begin();
        scratch.push_resource(2, caps[2]);
        scratch.push_resource(3, caps[3]);
        scratch.push_flow(&flows[2].resources, flows[2].rate_cap);
        scratch.push_flow(&flows[3].resources, flows[3].rate_cap);
        let b = scratch.fill().to_vec();

        assert_eq!(vec![a[0], a[1], b[0], b[1]], global);
    }
}
