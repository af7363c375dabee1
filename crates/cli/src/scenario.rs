//! Scenario descriptions: the JSON schema users feed to `opass run`.
//!
//! A scenario file contains one or more experiments. Each is one kind of
//! the `kinds!` table below, which wraps an [`opass_core::Experiment`]
//! driver's own configuration struct (or a [`Replay`] of a user trace),
//! plus the strategies to compare (parsed by
//! [`opass_core::Strategy::parse`], so every experiment shares one
//! strategy vocabulary). Missing fields take that struct's `Default`,
//! seed included, so
//! `{"type": "single_data", "strategies": ["rank_interval", "opass"]}`
//! already works.

use opass_core::experiment::Experiment as Driver;
use opass_core::runtime::{IoRecord, RunMetrics};
use opass_core::simio::TraceEvent;
use opass_core::{ClusterSpec, Strategy};
use opass_json::{field, fill, get, only_keys, Field, FieldError, Json};

/// A batch of experiments, each run under each of its strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Free-form label echoed into the report.
    pub name: String,
    /// The experiments to run.
    pub experiments: Vec<Experiment>,
}

/// One experiment: what to run plus the strategies to compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// The scenario and its parameters.
    pub kind: Kind,
    /// Strategy strings, run in order (`rank_interval`, `opass`,
    /// `delay:16`, …); each kind accepts its driver's strategies.
    pub strategies: Vec<String>,
}

/// Why a namenode cannot be built for `cluster`, if it cannot: it needs
/// at least one replica and a node for each.
fn cluster_refuses(cluster: &ClusterSpec) -> Option<String> {
    let (nodes, replicas) = (cluster.n_nodes, cluster.replication);
    if replicas == 0 {
        Some("replication must be at least 1".into())
    } else if nodes < replicas as usize {
        Some(format!("n_nodes {nodes} cannot hold {replicas} replicas"))
    } else {
        None
    }
}

/// Declares every experiment kind once: its [`Kind`] variant and the
/// struct it wraps, its scenario `type` label, one `"key" => field.path`
/// row per scenario key (in print order), and what it refuses, as
/// `condition => message` over the filled struct. Parsing refuses a key
/// no row names, starts from the struct's `Default`, overwrites the keys
/// present, then checks the whole struct once: its refusals, then its
/// cluster.
macro_rules! kinds {
    ($(
        $(#[$doc:meta])*
        $variant:ident($ty:ty) = $label:literal {
            $($key:literal => $($field:ident).+),* $(,)?
        } refuses |$x:ident| { $($bad:expr => $why:expr),* $(,)? }
    )*) => {
        /// What an experiment runs: a driver's own configuration.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Kind {
            $($(#[$doc])* $variant($ty),)*
        }

        impl Kind {
            /// The scenario `type`, also the experiment's report label.
            pub fn label(&self) -> &'static str {
                match self {
                    $(Kind::$variant(_) => $label,)*
                }
            }

            /// The kind named `label` with the keys of `obj`, checked.
            fn from_json(label: &str, obj: &Json) -> Result<Kind, FieldError> {
                let kind = match label {
                    $($label => {
                        only_keys(obj, $label, &["type", "strategies", $($key),*])?;
                        let mut $x = <$ty>::default();
                        $(fill(obj, $key, &mut $x.$($field).+)?;)*
                        Kind::$variant($x)
                    })*
                    other => return Err(FieldError(format!("unknown experiment type {other:?}"))),
                };
                let refused = match &kind {
                    $(Kind::$variant($x) => {
                        $(if $bad { Some(String::from($why)) } else)* { cluster_refuses(&$x.cluster) }
                    })*
                };
                match refused {
                    Some(why) => Err(FieldError(format!("{label}: {why}"))),
                    None => Ok(kind),
                }
            }

            /// The keys with their values, in print order.
            fn keys(&self) -> Vec<(String, Json)> {
                match self {
                    $(Kind::$variant($x) => vec![$(($key.to_string(), $x.$($field).+.put())),*],)*
                }
            }
        }
    };
}

kinds! {
    /// Section V-A1: equal single-data assignment.
    SingleData(opass_core::SingleData) = "single_data" {
        "n_nodes" => cluster.n_nodes,
        "chunks_per_process" => chunks_per_process,
        "replication" => cluster.replication,
        "seed" => cluster.seed,
    } refuses |x| { x.chunks_per_process == 0 => "chunks_per_process must be at least 1" }
    /// Section V-A2: triple-input tasks.
    MultiData(opass_core::MultiData) = "multi_data" {
        "n_nodes" => cluster.n_nodes,
        "tasks_per_process" => tasks_per_process,
        "seed" => cluster.seed,
    } refuses |x| { x.tasks_per_process == 0 => "tasks_per_process must be at least 1" }
    /// Section V-A3: master/worker with irregular compute.
    Dynamic(opass_core::Dynamic) = "dynamic" {
        "n_nodes" => cluster.n_nodes,
        "tasks_per_process" => tasks_per_process,
        "seed" => cluster.seed,
    } refuses |x| { x.tasks_per_process == 0 => "tasks_per_process must be at least 1" }
    /// Section V-B: ParaView multi-block rendering.
    ParaView(opass_core::ParaView) = "paraview" {
        "n_nodes" => cluster.n_nodes,
        "n_steps" => workload.n_steps,
        "seed" => cluster.seed,
    } refuses |x| { x.workload.n_steps == 0 => "n_steps must be at least 1" }
    /// Rack-locality extension.
    Racked(opass_core::Racked) = "racked" {
        "n_nodes" => cluster.n_nodes,
        "nodes_per_rack" => nodes_per_rack,
        "seed" => cluster.seed,
    } refuses |x| {
        x.nodes_per_rack <= x.late_per_rack =>
            format!("nodes_per_rack must exceed its {} late nodes", x.late_per_rack),
        x.storage_node_count() < x.cluster.replication as usize => format!(
            "n_nodes {} in racks of nodes_per_rack {} leaves {} storage nodes for {} replicas",
            x.cluster.n_nodes,
            x.nodes_per_rack,
            x.storage_node_count(),
            x.cluster.replication
        ),
    }
    /// Replay of a user task trace.
    Replay(Replay) = "replay" {
        "trace_file" => trace_file,
        "n_nodes" => cluster.n_nodes,
        "seed" => cluster.seed,
    } refuses |x| { x.trace_file.is_empty() => "needs a \"trace_file\" string" }
    /// Heterogeneous-cluster extension.
    Heterogeneous(opass_core::Heterogeneous) = "heterogeneous" {
        "n_nodes" => cluster.n_nodes,
        "seed" => cluster.seed,
    } refuses |x| {}
}

/// Replays a user task trace (CSV: `size_bytes,compute_seconds`), the one
/// kind with no core driver. Of its cluster it reads `n_nodes`,
/// `replication` and `seed`; the trace fixes the sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Path to the trace CSV; required.
    pub trace_file: String,
    /// Cluster parameters (32 nodes, seed 0 by default).
    pub cluster: ClusterSpec,
}

impl Default for Replay {
    fn default() -> Self {
        Replay {
            trace_file: String::new(),
            cluster: ClusterSpec {
                n_nodes: 32,
                seed: 0,
                ..Default::default()
            },
        }
    }
}

/// One strategy's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyReport {
    /// The run's per-read records, kept for `--trace-dir` dumps. Not part
    /// of the JSON report to keep it small.
    pub trace: Vec<IoRecord>,
    /// Observability metrics, present when the scenario ran instrumented
    /// (`--metrics`); dumped to files by the CLI with [`Self::events`],
    /// not inlined in the report JSON.
    pub metrics: Option<RunMetrics>,
    /// The run's recorded events; empty unless it ran instrumented.
    pub events: Vec<TraceEvent>,
    /// Strategy label as given in the scenario.
    pub strategy: String,
    /// Fraction of reads served node-locally.
    pub local_fraction: f64,
    /// Mean per-read I/O seconds.
    pub avg_io_seconds: f64,
    /// Worst per-read I/O seconds.
    pub max_io_seconds: f64,
    /// Whole-run simulated seconds.
    pub makespan_seconds: f64,
    /// Host seconds spent planning.
    pub planning_seconds: f64,
}

impl StrategyReport {
    /// The report row as a JSON object (trace and metrics omitted).
    pub fn to_json(&self) -> Json {
        let row = [
            ("strategy", Json::from(self.strategy.as_str())),
            ("local_fraction", Json::from(self.local_fraction)),
            ("avg_io_seconds", Json::from(self.avg_io_seconds)),
            ("max_io_seconds", Json::from(self.max_io_seconds)),
            ("makespan_seconds", Json::from(self.makespan_seconds)),
            ("planning_seconds", Json::from(self.planning_seconds)),
        ];
        Json::object(row.map(|(key, value)| (key.to_string(), value)))
    }
}

/// Replaces non-alphanumeric characters so a strategy label is usable in
/// a file name (`delay:16` → `delay_16`).
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

/// Writes one CSV per (experiment, strategy) with the full read trace.
pub fn dump_traces(dir: &std::path::Path, reports: &[ExperimentReport]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    for (i, report) in reports.iter().enumerate() {
        for strat in &report.strategies {
            let safe = sanitize(&strat.strategy);
            let path = dir.join(format!("{}_{}_{safe}.csv", i, report.experiment));
            let mut f = std::fs::File::create(path)?;
            writeln!(f, "proc,chunk,source,reader,issued_at,completed_at")?;
            for r in &strat.trace {
                writeln!(
                    f,
                    "{},{},{},{},{:.6},{:.6}",
                    r.proc, r.chunk.0, r.source.0, r.reader.0, r.issued_at, r.completed_at
                )?;
            }
        }
    }
    Ok(())
}

/// One experiment's report: the strategies side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment label (`single_data`, `racked`, …).
    pub experiment: String,
    /// Per-strategy measurements, in scenario order.
    pub strategies: Vec<StrategyReport>,
}

impl ExperimentReport {
    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "experiment".to_string(),
                Json::from(self.experiment.as_str()),
            ),
            (
                "strategies".to_string(),
                Json::array(self.strategies.iter().map(StrategyReport::to_json)),
            ),
        ])
    }
}

/// All reports as one JSON array (the `--json` output).
pub fn reports_json(reports: &[ExperimentReport]) -> Json {
    Json::array(reports.iter().map(ExperimentReport::to_json))
}

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum ScenarioError {
    /// The scenario JSON was malformed, did not match the schema, or held
    /// a value its experiment cannot run.
    Parse {
        /// What was wrong.
        message: String,
    },
    /// A strategy string did not parse for the experiment type.
    UnknownStrategy {
        /// Experiment label.
        experiment: String,
        /// The offending strategy string.
        strategy: String,
    },
    /// A replay trace could not be read or parsed.
    Trace {
        /// Trace file path.
        path: String,
        /// Underlying error.
        message: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse { message } => write!(f, "invalid scenario: {message}"),
            ScenarioError::UnknownStrategy {
                experiment,
                strategy,
            } => write!(
                f,
                "unknown strategy {strategy:?} for experiment {experiment:?}"
            ),
            ScenarioError::Trace { path, message } => {
                write!(f, "trace {path:?}: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<FieldError> for ScenarioError {
    fn from(e: FieldError) -> ScenarioError {
        ScenarioError::Parse { message: e.0 }
    }
}

impl ScenarioFile {
    /// Parses a scenario from its JSON text.
    pub fn parse(input: &str) -> Result<ScenarioFile, ScenarioError> {
        let root = Json::parse(input).map_err(|e| FieldError(e.to_string()))?;
        only_keys(&root, "scenario", &["name", "experiments"])?;
        let mut name = "unnamed scenario".to_string();
        fill(&root, "name", &mut name)?;
        let experiments = field(&root, "experiments")?
            .as_array()
            .ok_or_else(|| FieldError::must_be("experiments", "an array"))?
            .iter()
            .map(Experiment::from_json)
            .collect::<Result<_, _>>()?;
        Ok(ScenarioFile { name, experiments })
    }

    /// The scenario as a JSON document (inverse of [`ScenarioFile::parse`]).
    pub fn to_json(&self) -> Json {
        let experiments = Json::array(self.experiments.iter().map(Experiment::to_json));
        let pairs = [("name", self.name.put()), ("experiments", experiments)];
        Json::object(pairs.map(|(key, value)| (key.to_string(), value)))
    }
}

impl Experiment {
    fn from_json(v: &Json) -> Result<Experiment, FieldError> {
        let label: String = get(v, "type")?;
        Ok(Experiment {
            strategies: get(v, "strategies")?,
            kind: Kind::from_json(&label, v)?,
        })
    }

    /// The experiment as a JSON object: its `type`, its kind's keys,
    /// then its strategies.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("type".to_string(), Json::from(self.kind.label()))];
        pairs.extend(self.kind.keys());
        pairs.push(("strategies".to_string(), self.strategies.put()));
        Json::Object(pairs)
    }

    /// Runs every listed strategy and returns the comparison; with
    /// `instrument` the runs also record the event trace and attach
    /// [`RunMetrics`] to each report row.
    pub fn run_with(&self, instrument: bool) -> Result<ExperimentReport, ScenarioError> {
        let driver: &dyn Driver = match &self.kind {
            Kind::SingleData(x) => x,
            Kind::MultiData(x) => x,
            Kind::Dynamic(x) => x,
            Kind::ParaView(x) => x,
            Kind::Racked(x) => x,
            Kind::Heterogeneous(x) => x,
            Kind::Replay(replay) => return replay.run(&self.strategies, instrument),
        };
        let strategies = self.strategies.iter();
        Ok(ExperimentReport {
            experiment: self.kind.label().into(),
            strategies: strategies
                .map(|s| run_strategy(driver, s, instrument))
                .collect::<Result<_, _>>()?,
        })
    }
}

fn report_from(strategy: &str, run: opass_core::experiment::ExperimentRun) -> StrategyReport {
    let result = run.result;
    let io = result.io_summary();
    StrategyReport {
        strategy: strategy.to_string(),
        local_fraction: result.local_fraction(),
        avg_io_seconds: io.mean,
        max_io_seconds: io.max,
        makespan_seconds: result.makespan,
        planning_seconds: run.planning_seconds,
        metrics: run.metrics,
        events: result.events.unwrap_or_default(),
        trace: result.records,
    }
}

/// Runs one strategy string through a core driver, mapping both parse
/// failures and per-experiment rejections to [`ScenarioError`].
fn run_strategy(
    driver: &dyn Driver,
    s: &str,
    instrument: bool,
) -> Result<StrategyReport, ScenarioError> {
    let unknown = || ScenarioError::UnknownStrategy {
        experiment: driver.name().into(),
        strategy: s.into(),
    };
    let strategy = Strategy::parse(s).ok_or_else(unknown)?;
    let run = driver
        .run_with(strategy, instrument)
        .map_err(|_| unknown())?;
    Ok(report_from(s, run))
}

impl Replay {
    /// Reads the trace once and runs every strategy on it.
    fn run(
        &self,
        strategies: &[String],
        instrument: bool,
    ) -> Result<ExperimentReport, ScenarioError> {
        use opass_core::dfs::{DfsConfig, Namenode, Placement, ReplicaChoice};
        use opass_core::experiment::{run_planned, time_planning};
        use opass_core::runtime::{baseline, ExecConfig, ProcessPlacement, TaskSource};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let Replay {
            trace_file,
            cluster,
        } = self;
        let (n_nodes, seed) = (cluster.n_nodes, cluster.seed);
        let csv = std::fs::read_to_string(trace_file).map_err(|e| ScenarioError::Trace {
            path: trace_file.to_string(),
            message: e.to_string(),
        })?;
        let dfs = DfsConfig {
            replication: cluster.replication,
        };
        let mut nn = Namenode::new(n_nodes, dfs);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, workload) = opass_core::workloads::replay::from_csv(
            &mut nn,
            "replay",
            &csv,
            &Placement::Random,
            &mut rng,
        )
        .map_err(|e| ScenarioError::Trace {
            path: trace_file.to_string(),
            message: e.to_string(),
        })?;
        let placement = ProcessPlacement::one_per_node(n_nodes);
        let mut out = Vec::new();
        for s in strategies {
            let unknown = || ScenarioError::UnknownStrategy {
                experiment: "replay".into(),
                strategy: s.clone(),
            };
            let strategy = Strategy::parse(s).ok_or_else(unknown)?;
            let (assignment, planning_seconds) = time_planning(|| {
                Ok(match strategy {
                    Strategy::RankInterval => baseline::rank_interval(workload.len(), n_nodes),
                    Strategy::Opass => {
                        let request =
                            opass_core::PlanRequest::single(&nn, &workload, &placement).seed(seed);
                        opass_core::OpassPlanner::default()
                            .plan(&request)
                            .into_single()
                            .expect("single plan")
                            .assignment
                    }
                    _ => return Err(unknown()),
                })
            });
            let config = ExecConfig {
                replica_choice: ReplicaChoice::PreferLocalRandom,
                seed: seed ^ 0xEE,
                ..Default::default()
            };
            let run = run_planned(
                &nn,
                &workload,
                &placement,
                TaskSource::Static(assignment?),
                &config,
                instrument,
                planning_seconds,
            );
            out.push(report_from(s, run));
        }
        Ok(ExperimentReport {
            experiment: "replay".into(),
            strategies: out,
        })
    }
}

/// A ready-to-edit template scenario: the default single-data and
/// dynamic experiments, shrunk to 16 nodes at seed 1.
pub fn template() -> ScenarioFile {
    let cluster = ClusterSpec {
        n_nodes: 16,
        seed: 1,
        ..Default::default()
    };
    ScenarioFile {
        name: "opass demo scenario".into(),
        experiments: vec![
            Experiment {
                kind: Kind::SingleData(opass_core::SingleData {
                    cluster,
                    chunks_per_process: 5,
                }),
                strategies: vec!["rank_interval".into(), "opass".into()],
            },
            Experiment {
                kind: Kind::Dynamic(opass_core::Dynamic {
                    cluster,
                    tasks_per_process: 5,
                    ..Default::default()
                }),
                strategies: vec!["fifo".into(), "delay:16".into(), "opass".into()],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Experiment {
        /// Runs every listed strategy and returns the comparison.
        fn run(&self) -> Result<ExperimentReport, ScenarioError> {
            self.run_with(false)
        }
    }

    /// The one experiment `json` describes.
    fn experiment(json: &str) -> Experiment {
        Experiment::from_json(&Json::parse(json).unwrap()).unwrap()
    }

    #[test]
    fn template_round_trips_through_json() {
        let t = template();
        let json = t.to_json().to_pretty();
        let back = ScenarioFile::parse(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn minimal_json_uses_defaults() {
        let json = r#"{"experiments":[{"type":"single_data","strategies":["opass"]}]}"#;
        let file = ScenarioFile::parse(json).unwrap();
        assert_eq!(file.name, "unnamed scenario");
        let kind = Kind::SingleData(opass_core::SingleData::default());
        assert_eq!(file.experiments[0].kind, kind);
    }

    /// Every kind at its default, in the order of `seven_kinds`.
    fn defaults() -> [Kind; 7] {
        [
            Kind::SingleData(Default::default()),
            Kind::MultiData(Default::default()),
            Kind::Dynamic(Default::default()),
            Kind::ParaView(Default::default()),
            Kind::Racked(Default::default()),
            Kind::Replay(Default::default()),
            Kind::Heterogeneous(Default::default()),
        ]
    }

    #[test]
    fn a_bare_kind_is_its_core_default() {
        for kind in defaults() {
            if matches!(kind, Kind::Replay(_)) {
                continue; // its trace_file has no default
            }
            let json = format!(r#"{{"type": "{}", "strategies": []}}"#, kind.label());
            assert_eq!(experiment(&json).kind, kind, "{json}");
        }
    }

    #[test]
    fn seven_kinds_round_trip_through_json() {
        let file = ScenarioFile::parse(&seven_kinds("trace.csv")).unwrap();
        assert_eq!(file.experiments.len(), 7);
        for (e, default) in file.experiments.iter().zip(defaults()) {
            assert_eq!(e.kind.label(), default.label());
            for (set, unset) in e.kind.keys().into_iter().zip(default.keys()) {
                assert_ne!(set, unset, "{} keeps a default", e.kind.label());
            }
        }
        let printed = file.to_json().to_pretty();
        let back = ScenarioFile::parse(&printed).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.to_json().to_pretty(), printed);
    }

    #[test]
    fn values_a_driver_cannot_run_are_refused_naming_the_field() {
        let probes = [
            (
                r#""type": "single_data", "replication": 4294967299"#,
                "replication",
            ),
            (r#""type": "single_data", "replication": 0"#, "replication"),
            (r#""type": "single_data", "n_nodes": 0"#, "n_nodes"),
            (r#""type": "heterogeneous", "n_nodes": 2"#, "n_nodes"),
            (r#""type": "paraview", "n_nodes": 2"#, "n_nodes"),
            (
                r#""type": "replay", "trace_file": "t.csv", "n_nodes": 0"#,
                "n_nodes",
            ),
            (
                r#""type": "single_data", "chunks_per_process": 0"#,
                "chunks_per_process",
            ),
            (
                r#""type": "multi_data", "tasks_per_process": 0"#,
                "tasks_per_process",
            ),
            (
                r#""type": "dynamic", "tasks_per_process": 0"#,
                "tasks_per_process",
            ),
            (r#""type": "paraview", "n_steps": 0"#, "n_steps"),
            (r#""type": "racked", "nodes_per_rack": 2"#, "nodes_per_rack"),
            (r#""type": "racked", "nodes_per_rack": 0"#, "nodes_per_rack"),
            (
                r#""type": "racked", "n_nodes": 4, "nodes_per_rack": 3"#,
                "nodes_per_rack",
            ),
            (r#""type": "dynamic", "seed": 9007199254740993"#, "seed"),
            // A key of another kind is unknown to this one.
            (
                r#""type": "multi_data", "chunks_per_process": 2"#,
                "chunks_per_process",
            ),
        ];
        for (fields, field) in probes {
            let json = format!(r#"{{"experiments": [{{{fields}, "strategies": ["opass"]}}]}}"#);
            match ScenarioFile::parse(&json) {
                Err(ScenarioError::Parse { message }) => {
                    assert!(message.contains(field), "{json}: {message}")
                }
                other => panic!("{json}: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_scenarios_are_rejected() {
        assert!(ScenarioFile::parse("not json").is_err());
        assert!(ScenarioFile::parse(r#"{"name":"x"}"#).is_err());
        let bad_type = r#"{"experiments":[{"type":"wat","strategies":[]}]}"#;
        assert!(ScenarioFile::parse(bad_type).is_err());
        let no_strategies = r#"{"experiments":[{"type":"single_data"}]}"#;
        assert!(ScenarioFile::parse(no_strategies).is_err());
        let typo = ScenarioFile::parse(r#"{"nme": "x", "experiments": []}"#);
        assert!(
            matches!(&typo, Err(ScenarioError::Parse { message }) if message.contains("\"nme\"")),
            "{typo:?}"
        );
    }

    #[test]
    fn tiny_experiment_runs_and_reports() {
        let exp = experiment(
            r#"{"type": "single_data", "n_nodes": 8, "chunks_per_process": 2, "seed": 1,
                "strategies": ["rank_interval", "opass"]}"#,
        );
        let report = exp.run().unwrap();
        assert_eq!(report.experiment, "single_data");
        assert_eq!(report.strategies.len(), 2);
        let base = &report.strategies[0];
        let opass = &report.strategies[1];
        assert!(opass.local_fraction > base.local_fraction);
        assert!(base.metrics.is_none(), "plain runs carry no metrics");
    }

    #[test]
    fn instrumented_run_attaches_metrics_without_changing_results() {
        let exp = experiment(
            r#"{"type": "single_data", "n_nodes": 8, "chunks_per_process": 2, "seed": 1,
                "strategies": ["opass"]}"#,
        );
        let plain = exp.run().unwrap();
        let inst = exp.run_with(true).unwrap();
        let metrics = inst.strategies[0].metrics.as_ref().expect("metrics");
        assert_eq!(metrics.counters.reads, 16);
        assert_eq!(inst.strategies[0].trace, plain.strategies[0].trace);
        assert_eq!(
            inst.strategies[0].makespan_seconds,
            plain.strategies[0].makespan_seconds
        );
    }

    #[test]
    fn unknown_strategy_is_an_error() {
        let exp = experiment(
            r#"{"type": "multi_data", "n_nodes": 8, "tasks_per_process": 1, "seed": 0,
                "strategies": ["nonsense"]}"#,
        );
        let err = exp.run().unwrap_err();
        assert!(err.to_string().contains("nonsense"));
        // Parseable but unsupported for this experiment type.
        let exp = experiment(
            r#"{"type": "multi_data", "n_nodes": 8, "tasks_per_process": 1, "seed": 0,
                "strategies": ["fifo"]}"#,
        );
        assert!(exp.run().is_err());
    }

    #[test]
    fn report_json_matches_the_schema() {
        let exp = experiment(
            r#"{"type": "single_data", "n_nodes": 8, "chunks_per_process": 2, "seed": 1,
                "strategies": ["opass"]}"#,
        );
        let report = exp.run().unwrap();
        let json = reports_json(&[report]);
        let row = &json.as_array().unwrap()[0];
        assert_eq!(
            row.get("experiment").and_then(Json::as_str),
            Some("single_data")
        );
        let strat = &row.get("strategies").and_then(Json::as_array).unwrap()[0];
        assert_eq!(strat.get("strategy").and_then(Json::as_str), Some("opass"));
        assert!(strat.get("local_fraction").and_then(Json::as_f64).is_some());
        assert!(strat.get("trace").is_none(), "trace stays out of reports");
    }

    #[test]
    fn replay_experiment_runs_a_trace_file() {
        let trace = replay_trace("opass-cli-replay-test");
        let exp = Experiment {
            kind: Kind::Replay(Replay {
                trace_file: trace.to_string_lossy().into_owned(),
                cluster: ClusterSpec {
                    n_nodes: 4,
                    seed: 1,
                    ..Default::default()
                },
            }),
            strategies: vec!["rank_interval".into(), "opass".into()],
        };
        let report = exp.run().unwrap();
        assert_eq!(report.experiment, "replay");
        assert_eq!(report.strategies.len(), 2);
        assert_eq!(report.strategies[0].trace.len(), 4);
        std::fs::remove_dir_all(trace.parent().unwrap()).ok();
    }

    #[test]
    fn replay_missing_file_is_an_error() {
        let exp = experiment(
            r#"{"type": "replay", "trace_file": "/nonexistent/trace.csv", "n_nodes": 4,
                "strategies": ["opass"]}"#,
        );
        assert!(exp.run().is_err());
    }

    #[test]
    fn trace_dump_writes_csv_per_strategy() {
        let exp = experiment(
            r#"{"type": "single_data", "n_nodes": 8, "chunks_per_process": 2, "seed": 2,
                "strategies": ["opass"]}"#,
        );
        let report = exp.run().unwrap();
        assert_eq!(report.strategies[0].trace.len(), 16);
        let dir = std::env::temp_dir().join("opass-cli-trace-test");
        dump_traces(&dir, &[report]).unwrap();
        let content = std::fs::read_to_string(dir.join("0_single_data_opass.csv")).unwrap();
        assert!(content.starts_with("proc,chunk,source,reader"));
        assert_eq!(content.lines().count(), 17); // header + 16 reads
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A scenario holding all seven kinds, every key set away from its
    /// default; `trace_file` is the replay kind's trace.
    fn seven_kinds(trace_file: &str) -> String {
        format!(
            r#"{{"name": "seven kinds", "experiments": [
  {{"type": "single_data", "n_nodes": 8, "chunks_per_process": 3, "replication": 2,
    "seed": 11, "strategies": ["rank_interval", "random", "opass"]}},
  {{"type": "multi_data", "n_nodes": 8, "tasks_per_process": 2, "seed": 12,
    "strategies": ["rank_interval", "opass"]}},
  {{"type": "dynamic", "n_nodes": 8, "tasks_per_process": 2, "seed": 13,
    "strategies": ["fifo", "delay:4", "opass"]}},
  {{"type": "paraview", "n_nodes": 8, "n_steps": 2, "seed": 14,
    "strategies": ["default", "opass"]}},
  {{"type": "racked", "n_nodes": 16, "nodes_per_rack": 4, "seed": 15,
    "strategies": ["baseline", "node_only", "rack_aware"]}},
  {{"type": "replay", "trace_file": {trace_file:?}, "n_nodes": 4, "seed": 16,
    "strategies": ["rank_interval", "opass"]}},
  {{"type": "heterogeneous", "n_nodes": 8, "seed": 17,
    "strategies": ["uniform", "weighted"]}}
]}}"#
        )
    }

    /// Writes a four-task replay trace under a fresh temp directory named
    /// `name` and returns its path.
    fn replay_trace(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.csv");
        std::fs::write(
            &trace,
            "size_bytes,compute_seconds\n67108864,0.1\n33554432,0.2\n67108864,0\n67108864,0\n",
        )
        .unwrap();
        trace
    }

    #[test]
    fn seven_kinds_at_explicit_seeds_keep_their_results() {
        let trace = replay_trace("opass-cli-seven-kinds-pin");
        let file = ScenarioFile::parse(&seven_kinds(&trace.to_string_lossy())).unwrap();
        let rows: Vec<(String, String, f64, f64)> = file
            .experiments
            .iter()
            .flat_map(|e| {
                let report = e.run_with(false).unwrap();
                report.strategies.into_iter().map(move |s| {
                    (
                        report.experiment.clone(),
                        s.strategy,
                        s.local_fraction,
                        s.makespan_seconds,
                    )
                })
            })
            .collect();
        std::fs::remove_dir_all(trace.parent().unwrap()).ok();
        let pinned: &[(&str, &str, f64, f64)] = &[
            (
                "single_data",
                "rank_interval",
                0.2916666666666667,
                9.330566968183291,
            ),
            (
                "single_data",
                "random",
                0.16666666666666666,
                8.464375507387029,
            ),
            ("single_data", "opass", 1.0, 2.6966666666666663),
            ("multi_data", "rank_interval", 0.4375, 5.822465054070473),
            (
                "multi_data",
                "opass",
                0.7708333333333334,
                3.2563899460349996,
            ),
            ("dynamic", "fifo", 0.25, 8.227823958007038),
            ("dynamic", "delay:4", 0.8125, 5.557209469821325),
            ("dynamic", "opass", 0.875, 5.134732990598333),
            ("paraview", "default", 0.3359375, 169.32943302478128),
            ("paraview", "opass", 1.0, 148.60444444444443),
            ("racked", "baseline", 0.14375, 56.14526887803487),
            ("racked", "node_only", 0.5, 43.487988253952366),
            ("racked", "rack_aware", 0.5, 31.864132622957076),
            ("replay", "rank_interval", 1.0, 0.9988888888888888),
            ("replay", "opass", 1.0, 0.9988888888888888),
            ("heterogeneous", "uniform", 1.0, 17.877777777777776),
            ("heterogeneous", "weighted", 1.0, 12.514444444444443),
        ];
        assert_eq!(rows.len(), pinned.len());
        for (row, pin) in rows.iter().zip(pinned) {
            assert_eq!((row.0.as_str(), row.1.as_str()), (pin.0, pin.1));
            assert_eq!((row.2, row.3), (pin.2, pin.3), "{} {}", pin.0, pin.1);
        }
    }

    /// Every truncation prefix of `input` and every single-bit flip of
    /// each of its bytes, as text (a flip that breaks UTF-8 reads
    /// lossily); the twin of `decode_mutants.rs`'s mutator.
    fn mutants(input: &str) -> impl Iterator<Item = String> + '_ {
        let bytes = input.as_bytes();
        let cuts = (0..bytes.len()).map(move |n| bytes[..n].to_vec());
        let flips = (0..bytes.len() * 8).map(move |i| {
            let mut flipped = bytes.to_vec();
            flipped[i / 8] ^= 1 << (i % 8);
            flipped
        });
        cuts.chain(flips)
            .map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    #[test]
    fn mutated_scenarios_parse_or_are_refused() {
        let (mut refused, mut accepted) = (0, 0);
        for mutant in mutants(&seven_kinds("trace.csv")) {
            let parse = std::panic::catch_unwind(|| ScenarioFile::parse(&mutant));
            match parse {
                Ok(Ok(_)) => accepted += 1,
                Ok(Err(_)) if Json::parse(&mutant).is_ok() => refused += 1,
                Ok(Err(_)) => {}
                Err(_) => panic!("parsing {mutant:?} panicked"),
            }
        }
        // Both outcomes happen, so the mutants reach the field codec.
        assert!(
            refused > 0 && accepted > 0,
            "{refused} refused, {accepted} accepted"
        );
    }

    #[test]
    fn delay_strategy_parses_skip_count() {
        let exp = experiment(
            r#"{"type": "dynamic", "n_nodes": 8, "tasks_per_process": 2, "seed": 0,
                "strategies": ["delay:4"]}"#,
        );
        let report = exp.run().unwrap();
        assert_eq!(report.strategies[0].strategy, "delay:4");
    }
}
