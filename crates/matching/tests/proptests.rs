//! Randomized property tests for the matching algorithms.
//!
//! Invariants checked on randomized instances (seeded `StdRng` loops, so
//! every run exercises the same cases deterministically):
//! * Dinic and Edmonds–Karp always agree on the max-flow value, and
//!   neither exceeds a quota or matches a file away from its replicas;
//! * the in-place Dinic's exact work grows linearly on the planner's
//!   shape;
//! * the single-data matcher always produces a complete, balanced
//!   assignment whose matched files all lie on locality edges, and the
//!   matching it finds is maximum (equals the pure max-flow value);
//! * Algorithm 1 never drops or duplicates tasks, respects quotas, and its
//!   matched bytes are at least those of a naive greedy;
//! * the guided dynamic scheduler dispenses every task exactly once under
//!   arbitrary idle orders.

use opass_matching::maxflow::{dinic, edmonds_karp, FlowAlgo, FlowNetwork};
use opass_matching::{
    assign_multi_data, quotas, BipartiteGraph, DynamicScheduler, FifoScheduler, FillPolicy,
    GuidedScheduler, IncrementalMatcher, MatchingValues, Objective, SingleDataMatcher, NONE,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A random bipartite locality graph as (m, n, edges).
fn random_bipartite(rng: &mut StdRng) -> (usize, usize, Vec<(usize, usize)>) {
    let m = rng.gen_range(1usize..8);
    let n = rng.gen_range(1usize..40);
    let edges = (0..rng.gen_range(0usize..120))
        .map(|_| (rng.gen_range(0..m), rng.gen_range(0..n)))
        .collect();
    (m, n, edges)
}

fn build_graph(m: usize, n: usize, edges: &[(usize, usize)]) -> BipartiteGraph {
    let mut g = BipartiteGraph::new(m, n);
    for &(p, f) in edges {
        g.add_edge(p, f, 64);
    }
    g
}

#[test]
fn dinic_agrees_with_edmonds_karp() {
    // The in-place Dinic and Edmonds–Karp over the built network, both
    // through the matcher: equally large matchings, though not always
    // the same one.
    let mut rng = StdRng::seed_from_u64(0xB1);
    for case in 0..64 {
        let (m, n, edges) = random_bipartite(&mut rng);
        let g = build_graph(m, n, &edges);
        let via = |algo: FlowAlgo| {
            SingleDataMatcher {
                algo,
                ..Default::default()
            }
            .flow_owners(&g)
        };
        let ((dinic_owners, dinic_files), (_, ek_files)) =
            (via(FlowAlgo::Dinic), via(FlowAlgo::EdmondsKarp));
        assert_eq!(dinic_files, ek_files, "case {case}");
        assert_eq!(dinic_owners.iter().flatten().count(), dinic_files);
    }
}

#[test]
fn flow_never_exceeds_capacity() {
    // Under either algorithm no process takes more than its quota (its
    // `s → p` edge), and every owner holds its file locally (a `p → f`
    // edge exists).
    let mut rng = StdRng::seed_from_u64(0xB2);
    for _ in 0..64 {
        let (m, n, edges) = random_bipartite(&mut rng);
        let g = build_graph(m, n, &edges);
        let quota = quotas(n, m);
        for algo in [FlowAlgo::Dinic, FlowAlgo::EdmondsKarp] {
            let (owners, _) = SingleDataMatcher {
                algo,
                ..Default::default()
            }
            .flow_owners(&g);
            let mut load = vec![0usize; m];
            for (f, &p) in owners.iter().enumerate() {
                if let Some(p) = p {
                    assert!(g.weight(p, f).is_some(), "{algo:?}: ({p}, {f}) not local");
                    load[p] += 1;
                }
            }
            assert!(
                load.iter().zip(&quota).all(|(l, q)| l <= q),
                "{algo:?}: {load:?} over {quota:?}"
            );
        }
    }
}

#[test]
fn dinic_work_grows_linearly_on_replica_bounded_networks() {
    // The planner's locality graph at 128 processes and three replicas
    // per file; the in-place solve's exact work — counts from its
    // `FlowWork`, no clock — must stay a few phases and grow with the
    // edges, not faster, as the files double.
    let (m, r) = (128usize, 3usize);
    for seed in [1u64, 2, 3, 4] {
        let mut previous: Option<u64> = None;
        for n in [1280usize, 2560, 5120, 10_240] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = BipartiteGraph::new(m, n);
            let mut nodes: Vec<usize> = (0..m).collect();
            for f in 0..n {
                nodes.shuffle(&mut rng);
                for &p in &nodes[..r] {
                    g.add_edge(p, f, 64);
                }
            }
            let flow = dinic::bipartite_max_flow(&g, &quotas(n, m));
            let work = flow.work;
            let matched = flow.owner.iter().filter(|&&p| p != NONE).count();
            assert_eq!(
                work.paths, matched as u64,
                "unit paths: one per matched file"
            );
            assert!(work.phases <= 6, "seed {seed}, n {n}: {work:?}");
            if let Some(previous) = previous {
                assert!(
                    work.scanned as f64 <= 2.3 * previous as f64,
                    "seed {seed}, n {n}: scanned {} after {previous}",
                    work.scanned
                );
            }
            previous = Some(work.scanned);
        }
    }
}

#[test]
fn single_data_assignment_is_complete_balanced_and_maximum() {
    let mut rng = StdRng::seed_from_u64(0xB3);
    for _ in 0..64 {
        let (m, n, edges) = random_bipartite(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let g = build_graph(m, n, &edges);
        let mut assign_rng = StdRng::seed_from_u64(seed);
        let out = SingleDataMatcher::default().assign(&g, &mut assign_rng);

        // Complete: every task owned; balanced: quota respected exactly.
        assert_eq!(out.assignment.n_tasks(), n);
        let quota = quotas(n, m);
        for (p, &q) in quota.iter().enumerate() {
            assert_eq!(out.assignment.tasks_of(p).len(), q);
        }

        // Matched files lie on locality edges.
        let matched = (0..n)
            .filter(|&t| g.weight(out.assignment.owner_of(t), t).is_some())
            .count();
        assert!(
            matched >= out.matched_files,
            "reported {} matched, found {matched} local",
            out.matched_files
        );

        // Maximality: matched_files equals an independently computed
        // max-flow over the same quota network (via Edmonds-Karp).
        let s = 0usize;
        let t = 1 + m + n;
        let mut net = FlowNetwork::new(t + 1);
        for (p, &q) in quota.iter().enumerate() {
            if q > 0 {
                net.add_edge(s, 1 + p, q as u64);
            }
        }
        for p in 0..m {
            for (f, _) in g.files_of(p) {
                net.add_edge(1 + p, 1 + m + f, 1);
            }
        }
        for f in 0..n {
            net.add_edge(1 + m + f, t, 1);
        }
        let reference = edmonds_karp::max_flow(&mut net, s, t) as usize;
        assert_eq!(out.matched_files, reference);
    }
}

#[test]
fn all_three_matchers_agree_on_cardinality() {
    // Dinic, Edmonds–Karp, and the incremental matcher (a Kuhn-style
    // augmenting-path solver) are three independent routes to a maximum
    // matching under the same quota network; their cardinalities must be
    // identical on every instance — including after churn absorbed
    // through the incremental repair paths.
    let mut rng = StdRng::seed_from_u64(0xB8);
    for case in 0..48 {
        let (m, n, edges) = random_bipartite(&mut rng);
        let g = build_graph(m, n, &edges);
        let via = |algo: FlowAlgo| {
            SingleDataMatcher {
                algo,
                ..Default::default()
            }
            .assign(&g, &mut StdRng::seed_from_u64(7))
            .matched_files
        };
        let dinic_files = via(FlowAlgo::Dinic);
        let ek_files = via(FlowAlgo::EdmondsKarp);
        let mut inc = IncrementalMatcher::new(g.clone(), Objective::MatchCount);
        assert_eq!(dinic_files, ek_files, "case {case}: Dinic vs Edmonds–Karp");
        assert_eq!(
            dinic_files,
            inc.matched_count(),
            "case {case}: flow vs incremental"
        );

        // Churn the instance through the repair paths, then re-check the
        // three-way agreement on the mutated graph.
        for i in 0..8 {
            let p = rng.gen_range(0..m);
            let f = rng.gen_range(0..n);
            match (inc.graph().weight(p, f).is_some(), i % 2 == 0) {
                (true, true) => inc.remove_edge(p, f),
                (true, false) => inc.stage_remove_edge(p, f),
                (false, true) => inc.add_edge(p, f, 64),
                (false, false) => inc.stage_add_edge(p, f, 64),
            }
            if i % 2 != 0 {
                inc.repair_batch();
            }
        }
        let churned = inc.graph().clone();
        let via_churned = |algo: FlowAlgo| {
            SingleDataMatcher {
                algo,
                ..Default::default()
            }
            .assign(&churned, &mut StdRng::seed_from_u64(7))
            .matched_files
        };
        let dinic_files = via_churned(FlowAlgo::Dinic);
        assert_eq!(
            dinic_files,
            via_churned(FlowAlgo::EdmondsKarp),
            "case {case}: post-churn Dinic vs Edmonds–Karp"
        );
        assert_eq!(
            dinic_files,
            inc.matched_count(),
            "case {case}: post-churn flow vs incremental"
        );
    }
}

#[test]
fn fill_policies_only_differ_in_fill_choice() {
    let mut rng = StdRng::seed_from_u64(0xB4);
    for _ in 0..64 {
        let (m, n, edges) = random_bipartite(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let g = build_graph(m, n, &edges);
        let random = SingleDataMatcher {
            fill: FillPolicy::Random,
            ..Default::default()
        }
        .assign(&g, &mut StdRng::seed_from_u64(seed));
        let least = SingleDataMatcher {
            fill: FillPolicy::LeastLoaded,
            ..Default::default()
        }
        .assign(&g, &mut StdRng::seed_from_u64(seed));
        assert_eq!(random.matched_files, least.matched_files);
        assert_eq!(random.filled_files, least.filled_files);
    }
}

fn random_values(rng: &mut StdRng, m_max: usize, n_max: usize, e_max: usize) -> MatchingValues {
    let m = rng.gen_range(1usize..m_max);
    let n = rng.gen_range(1usize..n_max);
    let mut v = MatchingValues::new(m, n);
    for _ in 0..rng.gen_range(0usize..e_max) {
        let p = rng.gen_range(0usize..m_max);
        let t = rng.gen_range(0usize..n_max);
        let b = rng.gen_range(1u64..200);
        if p < m && t < n {
            v.add(p, t, b);
        }
    }
    v
}

#[test]
fn multi_data_respects_quotas_and_conserves_tasks() {
    let mut rng = StdRng::seed_from_u64(0xB5);
    for _ in 0..64 {
        let v = random_values(&mut rng, 8, 40, 150);
        let (m, n) = (v.n_procs(), v.n_tasks());
        let out = assign_multi_data(&v);
        let quota = quotas(n, m);
        let mut seen = vec![false; n];
        for (p, &q) in quota.iter().enumerate() {
            assert_eq!(out.assignment.tasks_of(p).len(), q, "p={p}");
            for &t in out.assignment.tasks_of(p) {
                assert!(!seen[t], "task {t} duplicated");
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn multi_data_has_no_blocking_pair() {
    let mut rng = StdRng::seed_from_u64(0xB6);
    for _ in 0..64 {
        let v = random_values(&mut rng, 6, 30, 100);
        let (m, n) = (v.n_procs(), v.n_tasks());
        let out = assign_multi_data(&v);
        // Deferred-acceptance stability under quotas: there is no (p, t)
        // where p values t strictly above its own least-valued task while
        // t's owner values t strictly below p (such a pair would justify a
        // trade the algorithm claims to have exhausted).
        for p in 0..m {
            let tasks = out.assignment.tasks_of(p);
            if tasks.is_empty() {
                continue;
            }
            let my_min = tasks.iter().map(|&t| v.value(p, t)).min().unwrap();
            for t in 0..n {
                let owner = out.assignment.owner_of(t);
                if owner == p {
                    continue;
                }
                let blocking = v.value(p, t) > my_min && v.value(owner, t) < v.value(p, t);
                assert!(
                    !blocking,
                    "blocking pair p={} t={}: v(p,t)={} my_min={} v(owner,t)={}",
                    p,
                    t,
                    v.value(p, t),
                    my_min,
                    v.value(owner, t)
                );
            }
        }
    }
}

#[test]
fn guided_scheduler_dispenses_each_task_once() {
    let mut rng = StdRng::seed_from_u64(0xB7);
    for _ in 0..64 {
        let m = rng.gen_range(1usize..6);
        let n = rng.gen_range(1usize..30);
        let idle_order: Vec<usize> = (0..rng.gen_range(0usize..80))
            .map(|_| rng.gen_range(0usize..6))
            .collect();
        let owners: Vec<usize> = (0..n).map(|t| t % m).collect();
        let assignment = opass_matching::Assignment::from_owners(owners, m);
        let values = MatchingValues::new(m, n);
        let mut sched = GuidedScheduler::new(&assignment, values);
        let mut seen = vec![false; n];
        let mut dispensed = 0usize;
        // Arbitrary idle pattern, then drain deterministically.
        for &w in idle_order.iter().filter(|&&w| w < m) {
            if let Some(t) = sched.next_task(w) {
                assert!(!seen[t]);
                seen[t] = true;
                dispensed += 1;
            }
        }
        while let Some(t) = sched.next_task(0) {
            assert!(!seen[t]);
            seen[t] = true;
            dispensed += 1;
        }
        assert_eq!(dispensed, n);
        assert_eq!(sched.remaining(), 0);
    }
}

#[test]
fn fifo_scheduler_dispenses_everything() {
    for n in [0usize, 1, 2, 7, 33, 59] {
        let mut sched = FifoScheduler::new(n);
        let mut count = 0;
        while sched.next_task(count % 3).is_some() {
            count += 1;
        }
        assert_eq!(count, n);
    }
}
