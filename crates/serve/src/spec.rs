//! The served world: a deterministic cluster + datasets, with per-dataset
//! generation counters and a layout-delta journal for fine-grained cache
//! invalidation.
//!
//! `opass-serve` is a planning service, not a storage service: all it
//! needs of the file system is each dataset's layout, and a [`World`]
//! holds exactly that — one [`LayoutSnapshot`] per dataset, drawn
//! deterministically from a [`ServeSpec`]. No namenode is kept: the
//! layouts are drawn equal to the ones [`ServeSpec::build_namenode`]
//! would hold, so any client that knows the spec can rebuild them (or
//! that namenode) in-process and verify the service byte-for-byte. The
//! world adds monotonically increasing *generations*; every cached layout
//! or plan is stamped with the generation of the dataset it was derived
//! from. Invalidation comes in two grains:
//!
//! * a bare `invalidate` bumps the global counter, staling every cached
//!   entry at once (the original all-or-nothing semantics);
//! * a dataset-scoped `invalidate` carrying a
//!   [`LayoutDelta`] advances only that dataset's generation, applies the
//!   delta to the dataset's materialized layout, and records it in a
//!   bounded journal — so a superseded cached plan can be *repaired* by
//!   replaying the deltas between its stamp and the current generation,
//!   and plans for other datasets stay valid.
//!
//! The base layouts are drawn from the spec by [`seeded_layouts`], the
//! builder a trace replay draws its world with too; churn advances each
//! dataset's layout copy-on-write, so handles served earlier keep what
//! they were given and world construction stays reproducible from the
//! spec.

use opass_core::dfs::{
    seeded_layouts, DatasetSpec, DfsConfig, LayoutDelta, LayoutSnapshot, Namenode, Placement,
};
use opass_core::runtime::ProcessPlacement;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Parameters of the served cluster. Construction is a pure function of
/// this spec, so server and clients agree on the world by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSpec {
    /// Cluster size (one planning process per node).
    pub n_nodes: usize,
    /// Number of datasets created at startup (`ds0`, `ds1`, …).
    pub n_datasets: usize,
    /// Chunks per dataset.
    pub chunks_per_dataset: usize,
    /// Chunk size, bytes.
    pub chunk_size: u64,
    /// Replication factor.
    pub replication: u32,
    /// Master seed driving random placement.
    pub seed: u64,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            n_nodes: 64,
            n_datasets: 8,
            chunks_per_dataset: 640,
            chunk_size: 64 << 20,
            replication: 3,
            seed: 0x5E17E,
        }
    }
}

impl ServeSpec {
    /// Builds the namenode this spec describes: `n_datasets` datasets of
    /// `chunks_per_dataset` chunks each, randomly placed from `seed`.
    /// Deterministic: equal specs yield byte-identical layouts.
    ///
    /// A [`World`] is not built through it: this is the reference its
    /// layouts are tested equal to, and the namenode for clients that
    /// want one (say, to apply the churn they replay on the service).
    ///
    /// The namenode comes back drained: the world is the base layout,
    /// not churn to project.
    pub fn build_namenode(&self) -> Namenode {
        let mut nn = Namenode::new(
            self.n_nodes,
            DfsConfig {
                replication: self.replication,
            },
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        for i in 0..self.n_datasets {
            let spec =
                DatasetSpec::uniform(format!("ds{i}"), self.chunks_per_dataset, self.chunk_size);
            nn.create_dataset(&spec, &Placement::Random, &mut rng);
        }
        nn.take_delta(|_| false);
        nn
    }

    /// The process placement every plan uses: one process per node.
    pub fn placement(&self) -> ProcessPlacement {
        ProcessPlacement::one_per_node(self.n_nodes)
    }
}

/// How many invalidations each dataset's journal remembers. A cached
/// plan older than this many generations behind cannot be repaired and
/// takes the cold path instead.
const JOURNAL_CAP: usize = 64;

/// Per-dataset mutable state: the current layout and the recent
/// invalidation journal.
#[derive(Debug)]
struct DatasetState {
    /// Current layout: the base layout drawn from the spec, advanced by
    /// each journalled delta (copy-on-write, so handles already served
    /// keep the layout they were given).
    layout: LayoutSnapshot,
    /// Recent invalidations, oldest first: the effective generation each
    /// one produced and the delta that produced it (`None` for a bare
    /// flush, which is never repairable). Boxed, an entry is 16 bytes,
    /// so the markers every bare flush leaves in every dataset's journal
    /// cost `JOURNAL_CAP × 16` bytes per dataset at most.
    journal: VecDeque<(u64, Option<Box<LayoutDelta>>)>,
}

/// The server's shared world: each dataset's layout plus per-dataset
/// invalidation generations and delta journals. The base layouts are
/// built from the spec; churn advances each dataset's layout behind its
/// own lock, so the world is freely shared across worker and connection
/// threads.
#[derive(Debug)]
pub struct World {
    spec: ServeSpec,
    /// Global invalidation bumps (bare `invalidate`), included in every
    /// dataset's effective generation.
    generation: AtomicU64,
    /// Additional scoped bumps per dataset (delta invalidations).
    dataset_bumps: Vec<AtomicU64>,
    datasets: Vec<Mutex<DatasetState>>,
    /// How many layouts were served (the fetch the layout cache exists
    /// to avoid).
    layout_walks: AtomicU64,
}

impl World {
    /// Builds the world from a spec: every dataset's layout, drawn
    /// directly, and nothing else. Panics on the specs
    /// [`build_namenode`](ServeSpec::build_namenode) panics on, with the
    /// same messages.
    pub fn new(spec: ServeSpec) -> World {
        World {
            spec,
            generation: AtomicU64::new(0),
            dataset_bumps: (0..spec.n_datasets).map(|_| AtomicU64::new(0)).collect(),
            datasets: seeded_layouts(
                spec.n_nodes,
                spec.replication,
                spec.seed,
                (0..spec.n_datasets).map(|_| (spec.chunks_per_dataset, spec.chunk_size)),
            )
            .map(|layout| {
                Mutex::new(DatasetState {
                    layout,
                    journal: VecDeque::new(),
                })
            })
            .collect(),
            layout_walks: AtomicU64::new(0),
        }
    }

    /// The spec the world was built from.
    pub fn spec(&self) -> &ServeSpec {
        &self.spec
    }

    /// The global invalidation generation (bare bumps only).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The effective generation of `dataset`: global bumps plus the
    /// dataset's scoped bumps. This is the stamp caches key against.
    pub fn generation_of(&self, dataset: usize) -> u64 {
        self.generation() + self.dataset_bumps[dataset].load(Ordering::Acquire)
    }

    /// Bumps the global generation, making every cached layout and plan
    /// stale (and unrepairable — a bare bump says "something changed"
    /// without saying what). Returns the new global generation.
    pub fn invalidate(&self) -> u64 {
        let new = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        // Each marker also guards a race. A delta invalidation that bumped
        // its dataset before this bump but read its generation after it
        // journals this bump's generation; a plan stamped in between
        // already saw that delta, and only the marker journalled behind
        // it keeps `deltas_since` from replaying it onto that plan.
        for dataset in 0..self.spec.n_datasets {
            let mut state = self.datasets[dataset]
                .lock()
                .expect("dataset state not poisoned");
            Self::push_journal(&mut state, self.generation_of(dataset), None);
        }
        new
    }

    /// Advances one dataset by a layout delta: applies it to the
    /// dataset's materialized layout, bumps only that dataset's
    /// generation, and journals the delta so cached plans stamped with
    /// recent generations can be repaired instead of recomputed. Plans
    /// and layouts for other datasets stay valid.
    ///
    /// Returns the dataset's new effective generation, or `None` for an
    /// unknown dataset index.
    pub fn invalidate_dataset(&self, dataset: usize, delta: &LayoutDelta) -> Option<u64> {
        if !self.has_dataset(dataset) {
            return None;
        }
        let mut state = self.datasets[dataset]
            .lock()
            .expect("dataset state not poisoned");
        let mut delta = delta.clone();
        delta.normalize();
        state.layout.apply_delta(&delta);
        self.dataset_bumps[dataset].fetch_add(1, Ordering::AcqRel);
        let generation = self.generation_of(dataset);
        Self::push_journal(&mut state, generation, Some(Box::new(delta)));
        Some(generation)
    }

    /// Bumps one dataset's generation without saying what changed: its
    /// cached plans and layouts go stale and are *not* repairable across
    /// this bump (the journal records a `None` marker). Other datasets
    /// stay valid. Returns the dataset's new effective generation, or
    /// `None` for an unknown dataset index.
    pub fn invalidate_dataset_opaque(&self, dataset: usize) -> Option<u64> {
        if !self.has_dataset(dataset) {
            return None;
        }
        let mut state = self.datasets[dataset]
            .lock()
            .expect("dataset state not poisoned");
        // The layout is not advanced: an opaque bump reports unknown
        // churn, so the next capture re-serves the current layout — the
        // caches just stop trusting their stamps.
        self.dataset_bumps[dataset].fetch_add(1, Ordering::AcqRel);
        let generation = self.generation_of(dataset);
        Self::push_journal(&mut state, generation, None);
        Some(generation)
    }

    /// Journals one invalidation, evicting the oldest first once the
    /// journal is full, so it never holds (or grows its buffer for) more
    /// than [`JOURNAL_CAP`] entries.
    fn push_journal(state: &mut DatasetState, generation: u64, delta: Option<Box<LayoutDelta>>) {
        if state.journal.len() == JOURNAL_CAP {
            state.journal.pop_front();
        }
        state.journal.push_back((generation, delta));
    }

    /// The deltas that advance `dataset` from generation `from` to the
    /// current one, in order — or `None` when the span is not repairable
    /// (a bare flush in between, a journal entry already evicted, or
    /// concurrent invalidations that left a gap). `None` means "take the
    /// cold path", never an error.
    pub fn deltas_since(&self, dataset: usize, from: u64) -> Option<Vec<LayoutDelta>> {
        let to = self.generation_of(dataset);
        if from > to {
            return None;
        }
        let state = self.datasets[dataset]
            .lock()
            .expect("dataset state not poisoned");
        let mut expected = from + 1;
        let mut deltas = Vec::new();
        for (gen, delta) in &state.journal {
            if *gen <= from {
                continue;
            }
            if *gen != expected {
                return None;
            }
            deltas.push(delta.as_deref()?.clone());
            expected += 1;
        }
        (expected == to + 1).then_some(deltas)
    }

    /// Number of layouts served so far: one per successful
    /// [`capture_layout`](Self::capture_layout).
    pub fn layout_walks(&self) -> u64 {
        self.layout_walks.load(Ordering::Relaxed)
    }

    /// Whether `dataset` is a valid dataset index.
    pub fn has_dataset(&self, dataset: usize) -> bool {
        dataset < self.spec.n_datasets
    }

    /// Serves the current layout of dataset `dataset` — the base layout
    /// plus any journalled churn — as a handle sharing the world's copy.
    /// Entry order is the dataset's chunk order, which defines task
    /// indexing downstream.
    ///
    /// Returns `None` for an unknown dataset index.
    pub fn capture_layout(&self, dataset: usize) -> Option<LayoutSnapshot> {
        if !self.has_dataset(dataset) {
            return None;
        }
        let state = self.datasets[dataset]
            .lock()
            .expect("dataset state not poisoned");
        // Every layout served counts as an authoritative fetch: the walk
        // counter measures what the layout cache avoids.
        self.layout_walks.fetch_add(1, Ordering::Relaxed);
        Some(state.layout.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_core::dfs::NodeId;

    #[test]
    fn namenode_construction_is_deterministic() {
        let spec = ServeSpec {
            n_nodes: 8,
            n_datasets: 2,
            chunks_per_dataset: 24,
            ..Default::default()
        };
        let a = World::new(spec);
        let b = World::new(spec);
        let la = a.capture_layout(1).expect("dataset 1 exists");
        let lb = b.capture_layout(1).expect("dataset 1 exists");
        assert_eq!(la, lb);
        assert_eq!(a.layout_walks(), 1);
    }

    /// Every dataset the world serves against a capture of the same
    /// dataset from the namenode the spec describes.
    fn assert_layouts_are_the_namenode_captures(spec: ServeSpec) {
        let nn = spec.build_namenode();
        let world = World::new(spec);
        assert_eq!(nn.datasets().len(), spec.n_datasets);
        for (d, meta) in nn.datasets().iter().enumerate() {
            let served = world.capture_layout(d).expect("dataset exists");
            assert!(
                served == LayoutSnapshot::capture(&nn, &meta.chunks),
                "{spec:?}: dataset {d}"
            );
        }
        assert!(world.capture_layout(spec.n_datasets).is_none());
    }

    #[test]
    fn layouts_are_the_namenode_captures() {
        // The benchmark's served world on both of its seeds, then the
        // edges: every node holds every chunk (n = r), one replica, one
        // node, one chunk per dataset, empty datasets, no datasets.
        let bench = ServeSpec {
            n_nodes: 64,
            n_datasets: 256,
            chunks_per_dataset: 1280,
            chunk_size: 64 << 20,
            replication: 3,
            seed: 1,
        };
        let small = ServeSpec {
            n_datasets: 3,
            chunks_per_dataset: 40,
            ..Default::default()
        };
        let specs = [
            bench,
            ServeSpec {
                seed: 20150525,
                ..bench
            },
            ServeSpec {
                n_nodes: 3,
                ..small
            },
            ServeSpec {
                n_nodes: 5,
                replication: 1,
                ..small
            },
            ServeSpec {
                n_nodes: 1,
                replication: 1,
                ..small
            },
            ServeSpec {
                chunks_per_dataset: 1,
                ..small
            },
            ServeSpec {
                chunks_per_dataset: 0,
                ..small
            },
            ServeSpec {
                n_datasets: 0,
                ..small
            },
        ];
        // The two benchmark-sized specs dominate; they run side by side.
        std::thread::scope(|s| {
            for spec in specs {
                s.spawn(move || assert_layouts_are_the_namenode_captures(spec));
            }
        });
    }

    /// The message `build` panics with.
    fn panic_message(build: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
            .expect_err("an invalid spec panics");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panics carry a message")
    }

    #[test]
    fn invalid_specs_panic_as_the_namenode_path_does() {
        for spec in [
            ServeSpec {
                n_nodes: 2,
                ..Default::default()
            },
            ServeSpec {
                replication: 0,
                ..Default::default()
            },
            ServeSpec {
                chunk_size: 0,
                ..Default::default()
            },
        ] {
            let want = panic_message(|| drop(spec.build_namenode()));
            assert_eq!(panic_message(|| drop(World::new(spec))), want, "{spec:?}");
        }
        // With no dataset to create, neither path looks at the chunk size.
        let empty = ServeSpec {
            n_datasets: 0,
            chunk_size: 0,
            ..Default::default()
        };
        assert_eq!(empty.build_namenode().chunk_count(), 0);
        assert!(!World::new(empty).has_dataset(0));
    }

    #[test]
    fn layout_walks_count_exactly_the_layouts_served() {
        let world = World::new(ServeSpec {
            n_nodes: 6,
            n_datasets: 2,
            chunks_per_dataset: 12,
            ..Default::default()
        });
        // Invalidations serve nothing, a dataset's first delta included.
        let failed = LayoutDelta {
            nodes_failed: vec![NodeId(0)],
            ..Default::default()
        };
        world.invalidate_dataset(0, &failed).expect("valid dataset");
        world.invalidate_dataset_opaque(1).expect("valid dataset");
        world.invalidate();
        assert_eq!(world.layout_walks(), 0);

        let mut served = 0;
        for dataset in [0, 1, 0, 2, 1, 0] {
            served += u64::from(world.capture_layout(dataset).is_some());
            assert_eq!(world.layout_walks(), served, "after dataset {dataset}");
        }
        assert_eq!(served, 5);
        let churned = world.capture_layout(0).expect("dataset 0");
        assert!(churned
            .entries()
            .iter()
            .all(|e| !e.locations.contains(&NodeId(0))));
    }

    #[test]
    fn built_namenode_keeps_no_creation_journal() {
        let spec = ServeSpec {
            n_nodes: 8,
            n_datasets: 3,
            chunks_per_dataset: 24,
            ..Default::default()
        };
        let nn = spec.build_namenode();
        assert_eq!(nn.chunk_count(), 72);
        assert!(nn.events().is_empty());
        assert!(nn.clone().take_delta(|_| true).is_empty());
    }

    #[test]
    fn captures_share_the_overlay_until_churn_diverges_them() {
        let world = World::new(ServeSpec {
            n_nodes: 6,
            n_datasets: 2,
            chunks_per_dataset: 12,
            ..Default::default()
        });
        let first = world.capture_layout(0).expect("dataset 0");
        let second = world.capture_layout(0).expect("dataset 0");
        assert!(first.ptr_eq(&second), "no churn between: one copy");
        assert_eq!(world.layout_walks(), 2, "every capture still counts");
        let other = world.capture_layout(1).expect("dataset 1");
        assert!(!other.ptr_eq(&first));

        // Churn copies the world's layout once, at the mutation; handles
        // taken earlier keep the layout they were given.
        let kept = first.clone();
        let reference = World::new(*world.spec())
            .capture_layout(0)
            .expect("dataset 0");
        let victim = first.entries()[0].locations[0];
        let delta = LayoutDelta {
            replicas_dropped: vec![(first.entries()[0].chunk, victim)],
            ..Default::default()
        };
        world.invalidate_dataset(0, &delta).expect("valid dataset");
        assert_eq!(first, reference, "earlier capture unchanged");
        assert!(first.ptr_eq(&second) && first.ptr_eq(&kept));
        let after = world.capture_layout(0).expect("dataset 0");
        assert!(!after.ptr_eq(&first));
        assert!(!after.entries()[0].locations.contains(&victim));
        assert!(after.ptr_eq(&world.capture_layout(0).expect("dataset 0")));
        assert_eq!(world.layout_walks(), 5);
    }

    #[test]
    fn invalidate_bumps_generation() {
        let world = World::new(ServeSpec {
            n_nodes: 4,
            n_datasets: 1,
            chunks_per_dataset: 8,
            ..Default::default()
        });
        assert_eq!(world.generation(), 0);
        assert_eq!(world.invalidate(), 1);
        assert_eq!(world.generation(), 1);
    }

    #[test]
    fn delta_invalidation_is_scoped_and_repairable() {
        let world = World::new(ServeSpec {
            n_nodes: 6,
            n_datasets: 2,
            chunks_per_dataset: 12,
            ..Default::default()
        });
        let before = world.capture_layout(0).expect("dataset 0");
        // Drop one replica of the first chunk.
        let victim = before.entries()[0].locations[0];
        let delta = LayoutDelta {
            replicas_dropped: vec![(before.entries()[0].chunk, victim)],
            ..Default::default()
        };
        let gen = world.invalidate_dataset(0, &delta).expect("valid dataset");
        assert_eq!(gen, 1);
        assert_eq!(world.generation_of(0), 1, "dataset 0 advanced");
        assert_eq!(world.generation_of(1), 0, "dataset 1 untouched");
        assert_eq!(world.generation(), 0, "no global bump");

        let after = world.capture_layout(0).expect("dataset 0");
        assert!(!after.entries()[0].locations.contains(&victim));
        assert_eq!(after.entries().len(), before.entries().len());

        // The span 0 → 1 is repairable and replays the same delta.
        let mut want = delta.clone();
        want.normalize();
        assert_eq!(world.deltas_since(0, 0), Some(vec![want]));
        // Dataset 1 has no churn: an up-to-date stamp needs no deltas.
        assert_eq!(world.deltas_since(1, 0), Some(vec![]));
    }

    #[test]
    fn bare_invalidate_breaks_repairability() {
        let world = World::new(ServeSpec {
            n_nodes: 4,
            n_datasets: 1,
            chunks_per_dataset: 8,
            ..Default::default()
        });
        world.invalidate();
        assert_eq!(
            world.deltas_since(0, 0),
            None,
            "a bare flush says 'changed' without saying what"
        );
        // And a stamp from the future is never repairable.
        assert_eq!(world.deltas_since(0, 99), None);
    }

    #[test]
    fn journal_eviction_forces_cold_path() {
        let world = World::new(ServeSpec {
            n_nodes: 4,
            n_datasets: 1,
            chunks_per_dataset: 8,
            ..Default::default()
        });
        let empty = LayoutDelta::default();
        for _ in 0..(JOURNAL_CAP + 4) {
            world.invalidate_dataset(0, &empty).expect("valid dataset");
        }
        assert_eq!(world.deltas_since(0, 0), None, "gen 0 fell off the journal");
        let recent = world.generation_of(0) - 3;
        assert_eq!(
            world
                .deltas_since(0, recent)
                .expect("recent span still journalled")
                .len(),
            3
        );
    }

    #[test]
    fn journals_stop_at_their_cap() {
        let world = World::new(ServeSpec {
            n_nodes: 4,
            n_datasets: 2,
            chunks_per_dataset: 8,
            ..Default::default()
        });
        let capacities = |world: &World| -> Vec<usize> {
            world
                .datasets
                .iter()
                .map(|d| d.lock().expect("not poisoned").journal.capacity())
                .collect()
        };
        let empty = LayoutDelta::default();
        for _ in 0..3 * JOURNAL_CAP {
            for dataset in 0..2 {
                world
                    .invalidate_dataset(dataset, &empty)
                    .expect("valid dataset");
            }
        }
        assert!(capacities(&world).iter().all(|&c| c <= JOURNAL_CAP));
        // Bare flushes journal a marker in every dataset: the same cap.
        for _ in 0..3 * JOURNAL_CAP {
            world.invalidate();
        }
        assert!(capacities(&world).iter().all(|&c| c <= JOURNAL_CAP));
        for dataset in 0..2 {
            let state = world.datasets[dataset].lock().expect("not poisoned");
            assert_eq!(state.journal.len(), JOURNAL_CAP);
            assert!(state.journal.iter().all(|(_, delta)| delta.is_none()));
        }
    }

    #[test]
    fn a_plan_stamped_before_a_bare_flush_is_not_repairable() {
        let world = World::new(ServeSpec {
            n_nodes: 6,
            n_datasets: 2,
            chunks_per_dataset: 12,
            ..Default::default()
        });
        let failed = LayoutDelta {
            nodes_failed: vec![NodeId(0)],
            ..Default::default()
        };
        world.invalidate_dataset(0, &failed).expect("valid dataset");
        let stamp = world.generation_of(0);
        world.invalidate();
        world.invalidate_dataset(0, &failed).expect("valid dataset");
        assert_eq!(world.deltas_since(0, stamp), None);
        assert_eq!(world.deltas_since(1, 0), None, "every dataset was flushed");
        // A stamp taken after the flush repairs across later deltas.
        let stamp = world.generation_of(0);
        world.invalidate_dataset(0, &failed).expect("valid dataset");
        assert_eq!(world.deltas_since(0, stamp).map(|d| d.len()), Some(1));
    }

    #[test]
    fn a_marker_keeps_a_delta_sharing_its_generation_from_replaying() {
        // The interleaving `invalidate`'s markers guard, played in order
        // on one thread: a delta invalidation bumps its dataset, a plan
        // is stamped, a bare flush bumps the global counter, and only
        // then does the delta read its generation and journal it.
        let world = World::new(ServeSpec {
            n_nodes: 4,
            n_datasets: 1,
            chunks_per_dataset: 8,
            ..Default::default()
        });
        let mut state = world.datasets[0].lock().expect("not poisoned");
        world.dataset_bumps[0].fetch_add(1, Ordering::AcqRel);
        let stamp = world.generation_of(0);
        world.generation.fetch_add(1, Ordering::AcqRel);
        let shared = world.generation_of(0);
        World::push_journal(&mut state, shared, Some(Box::default()));
        World::push_journal(&mut state, shared, None);
        drop(state);
        assert_eq!(world.deltas_since(0, stamp), None);
        assert_eq!(world.deltas_since(0, shared), Some(vec![]));
    }

    #[test]
    fn unknown_dataset_is_none_and_walks_nothing() {
        let world = World::new(ServeSpec {
            n_nodes: 4,
            n_datasets: 1,
            chunks_per_dataset: 8,
            ..Default::default()
        });
        assert!(world.capture_layout(1).is_none());
        assert_eq!(world.layout_walks(), 0);
    }
}
