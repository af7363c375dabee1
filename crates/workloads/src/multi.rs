//! Multi-input workloads (paper Section V-A2, Figure 2 right).
//!
//! "Each task includes three inputs, one 30 MB data input, one 20 MB input,
//! and one 10 MB input. These three inputs belong to three different data
//! sets." — the gene-comparison scenario (human/mouse/chimpanzee subsets):
//! task `i` reads chunk `i` of each of the three datasets.

use crate::task::{Task, Workload};
use opass_dfs::{DatasetId, DatasetSpec, Namenode, Placement};
use rand::rngs::StdRng;

/// One megabyte in bytes.
const MB: u64 = 1024 * 1024;

/// Parameters for the multi-input workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDataConfig {
    /// Number of tasks (the paper uses 640 chunks / 64 nodes scenario).
    pub n_tasks: usize,
    /// Chunk size of each input dataset, in bytes, in read order.
    /// Defaults to the paper's 30/20/10 MB.
    pub input_sizes: Vec<u64>,
}

impl Default for MultiDataConfig {
    fn default() -> Self {
        MultiDataConfig {
            n_tasks: 640,
            input_sizes: vec![30 * MB, 20 * MB, 10 * MB],
        }
    }
}

/// Creates one dataset per input class and returns the workload whose task
/// `i` reads chunk `i` of every dataset.
pub fn generate(
    namenode: &mut Namenode,
    config: &MultiDataConfig,
    placement: &Placement,
    rng: &mut StdRng,
) -> (Vec<DatasetId>, Workload) {
    assert!(config.n_tasks > 0, "need at least one task");
    assert!(
        !config.input_sizes.is_empty(),
        "need at least one input class"
    );
    let dataset_ids: Vec<DatasetId> = config
        .input_sizes
        .iter()
        .enumerate()
        .map(|(k, &size)| {
            let spec = DatasetSpec::uniform(format!("multi-input-{k}"), config.n_tasks, size);
            namenode.create_dataset(&spec, placement, rng)
        })
        .collect();

    let per_dataset_chunks: Vec<Vec<opass_dfs::ChunkId>> = dataset_ids
        .iter()
        .map(|&id| namenode.dataset(id).expect("just created").chunks.clone())
        .collect();

    let tasks = (0..config.n_tasks)
        .map(|i| Task::multi(per_dataset_chunks.iter().map(|c| c[i]).collect()))
        .collect();
    (dataset_ids, Workload::new("multi-input", tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use opass_dfs::DfsConfig;
    use rand::SeedableRng;

    #[test]
    fn tasks_read_one_chunk_of_each_dataset() {
        let mut nn = Namenode::new(6, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = MultiDataConfig {
            n_tasks: 5,
            input_sizes: vec![30, 20, 10],
        };
        let (ids, w) = generate(&mut nn, &cfg, &Placement::Random, &mut rng);
        assert_eq!(ids.len(), 3);
        assert_eq!(w.len(), 5);
        for (i, task) in w.tasks.iter().enumerate() {
            assert_eq!(task.inputs.len(), 3);
            let sizes: Vec<u64> = task
                .inputs
                .iter()
                .map(|&c| nn.chunk(c).unwrap().size)
                .collect();
            assert_eq!(sizes, vec![30, 20, 10], "task {i}");
        }
    }

    #[test]
    fn default_matches_paper() {
        let cfg = MultiDataConfig::default();
        assert_eq!(cfg.input_sizes.iter().sum::<u64>(), 60 * MB);
        assert_eq!(cfg.n_tasks, 640);
    }

    #[test]
    fn inputs_span_distinct_datasets() {
        let mut nn = Namenode::new(6, DfsConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = MultiDataConfig {
            n_tasks: 4,
            input_sizes: vec![10, 10],
        };
        let (_, w) = generate(&mut nn, &cfg, &Placement::Random, &mut rng);
        for task in &w.tasks {
            let datasets: std::collections::BTreeSet<_> = task
                .inputs
                .iter()
                .map(|&c| nn.chunk(c).unwrap().dataset)
                .collect();
            assert_eq!(datasets.len(), 2);
        }
    }
}
