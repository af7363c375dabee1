//! The served world: a deterministic cluster + datasets, with per-dataset
//! generation counters and a layout-delta journal for fine-grained cache
//! invalidation.
//!
//! `opass-serve` is a planning service, not a storage service: it owns a
//! [`Namenode`] built deterministically from a [`ServeSpec`] (any client
//! that knows the spec can rebuild the identical namenode in-process and
//! verify the service byte-for-byte). The [`World`] wraps the namenode
//! with monotonically increasing *generations*; every cached layout or
//! plan is stamped with the generation of the dataset it was derived
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
//! The base namenode is never mutated; churn lives in per-dataset overlay
//! snapshots, keeping world construction reproducible from the spec.

use opass_core::dfs::{DatasetSpec, DfsConfig, LayoutDelta, LayoutSnapshot, Namenode, Placement};
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
    /// The namenode comes back with an empty event journal: the world is
    /// the base layout, not churn to project, so each dataset's creation
    /// events are dropped as soon as it is built and the journal never
    /// holds more than one dataset.
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
            nn.take_events();
        }
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

/// Per-dataset mutable state: the materialized current layout (the base
/// namenode stays pristine) and the recent invalidation journal.
#[derive(Debug, Default)]
struct DatasetState {
    /// Current layout, captured lazily from the namenode and advanced in
    /// place by each journalled delta.
    layout: Option<LayoutSnapshot>,
    /// Recent invalidations, oldest first: the effective generation each
    /// one produced and the delta that produced it (`None` for a bare
    /// flush, which is never repairable).
    journal: VecDeque<(u64, Option<LayoutDelta>)>,
}

/// The server's shared world: the namenode plus per-dataset invalidation
/// generations and delta journals. The base namenode is immutable after
/// construction; layout churn accumulates in per-dataset overlays, so the
/// world is freely shared across worker and connection threads.
#[derive(Debug)]
pub struct World {
    spec: ServeSpec,
    namenode: Namenode,
    /// Global invalidation bumps (bare `invalidate`), included in every
    /// dataset's effective generation.
    generation: AtomicU64,
    /// Additional scoped bumps per dataset (delta invalidations).
    dataset_bumps: Vec<AtomicU64>,
    datasets: Vec<Mutex<DatasetState>>,
    /// How many times a layout was captured from the namenode (the "walk"
    /// the layout cache exists to avoid).
    layout_walks: AtomicU64,
}

impl World {
    /// Builds the world from a spec.
    pub fn new(spec: ServeSpec) -> World {
        World {
            namenode: spec.build_namenode(),
            spec,
            generation: AtomicU64::new(0),
            dataset_bumps: (0..spec.n_datasets).map(|_| AtomicU64::new(0)).collect(),
            datasets: (0..spec.n_datasets)
                .map(|_| Mutex::new(DatasetState::default()))
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
        if state.layout.is_none() {
            state.layout = Some(self.capture_base(dataset));
        }
        let mut delta = delta.clone();
        delta.normalize();
        state
            .layout
            .as_mut()
            .expect("materialized above")
            .apply_delta(&delta);
        self.dataset_bumps[dataset].fetch_add(1, Ordering::AcqRel);
        let generation = self.generation_of(dataset);
        Self::push_journal(&mut state, generation, Some(delta));
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
        // The overlay is not advanced: an opaque bump reports unknown
        // churn, so the next capture re-serves the current overlay (or
        // base) — the caches just stop trusting their stamps.
        self.dataset_bumps[dataset].fetch_add(1, Ordering::AcqRel);
        let generation = self.generation_of(dataset);
        Self::push_journal(&mut state, generation, None);
        Some(generation)
    }

    fn push_journal(state: &mut DatasetState, generation: u64, delta: Option<LayoutDelta>) {
        state.journal.push_back((generation, delta));
        while state.journal.len() > JOURNAL_CAP {
            state.journal.pop_front();
        }
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
            deltas.push(delta.clone()?);
            expected += 1;
        }
        (expected == to + 1).then_some(deltas)
    }

    /// Number of namenode layout walks performed so far.
    pub fn layout_walks(&self) -> u64 {
        self.layout_walks.load(Ordering::Relaxed)
    }

    /// Whether `dataset` is a valid dataset index.
    pub fn has_dataset(&self, dataset: usize) -> bool {
        dataset < self.spec.n_datasets
    }

    /// The base (churn-free) layout of `dataset`, walked from the
    /// namenode.
    fn capture_base(&self, dataset: usize) -> LayoutSnapshot {
        self.layout_walks.fetch_add(1, Ordering::Relaxed);
        let meta = self
            .namenode
            .dataset(opass_core::dfs::DatasetId(dataset as u32))
            .expect("dataset index validated against the spec");
        LayoutSnapshot::capture(&self.namenode, &meta.chunks)
    }

    /// Captures the current layout of dataset `dataset` — the expensive
    /// walk the layout cache short-circuits, plus any journalled churn.
    /// Entry order is the dataset's chunk order, which defines task
    /// indexing downstream.
    ///
    /// Returns `None` for an unknown dataset index.
    pub fn capture_layout(&self, dataset: usize) -> Option<LayoutSnapshot> {
        if !self.has_dataset(dataset) {
            return None;
        }
        let mut state = self.datasets[dataset]
            .lock()
            .expect("dataset state not poisoned");
        if state.layout.is_none() {
            state.layout = Some(self.capture_base(dataset));
        } else {
            // Serving the overlay still counts as an authoritative fetch:
            // the walk counter measures what the layout cache avoids.
            self.layout_walks.fetch_add(1, Ordering::Relaxed);
        }
        state.layout.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

        // Churn copies the overlay once, at the mutation; handles taken
        // earlier keep the layout they were given.
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
