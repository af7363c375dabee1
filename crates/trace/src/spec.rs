//! The generator's JSON-serializable parameter block.

use opass_json::{json_object, Field, Json};

/// The most records a spec may ask for: 2³², 128 GiB of generated
/// records, far past any trace this crate is used for, and small enough
/// that a count read from user input cannot ask for the impossible.
const MAX_RECORDS: u64 = 1 << 32;

/// The most chunks a dataset may have: a record's `chunk` is a `u32`, so
/// indices run `0..2³²`.
const MAX_CHUNKS: u64 = 1 << 32;

/// A flash-crowd burst: between `start_s` and `start_s + duration_s`,
/// accesses to `dataset` are `multiplier`× more likely and the overall
/// arrival rate rises with them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// Burst start, seconds into the trace.
    pub start_s: f64,
    /// Burst length, seconds.
    pub duration_s: f64,
    /// The dataset the crowd flashes onto.
    pub dataset: u32,
    /// Popularity multiplier applied to that dataset while the burst is
    /// active (≥ 1).
    pub multiplier: f64,
}

/// Everything the trace generator needs. [`crate::generate`] is a pure
/// function of this spec: equal specs produce byte-identical traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Human-readable name, echoed into the trace's comment header.
    pub name: String,
    /// Master RNG seed.
    pub seed: u64,
    /// Number of records to emit, 1 to 2³².
    pub records: u64,
    /// Trace length in seconds; arrival intensity is scaled so the
    /// expected last arrival lands near this horizon.
    pub duration_s: f64,
    /// Number of distinct clients (ids `0..clients`).
    pub clients: u32,
    /// Number of datasets (ids `0..datasets`).
    pub datasets: u32,
    /// Chunks per dataset (chunk indices `0..chunks_per_dataset`), 1 to
    /// 2³².
    pub chunks_per_dataset: u64,
    /// Bytes read per access (one chunk), at most `u32::MAX`.
    pub chunk_size: u64,
    /// Zipf exponent `s` for dataset popularity: dataset `d` has weight
    /// `1/(d+1)^s`. `0` means uniform.
    pub zipf_exponent: f64,
    /// Diurnal swing amplitude in `[0, 1)`: intensity follows
    /// `1 + amplitude · sin(2πt/period)`.
    pub diurnal_amplitude: f64,
    /// Diurnal period in seconds.
    pub diurnal_period_s: f64,
    /// Flash-crowd bursts, applied on top of the diurnal curve.
    pub bursts: Vec<BurstSpec>,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            name: "example".to_string(),
            seed: 0xACCE55,
            records: 1_000_000,
            duration_s: 3600.0,
            clients: 64,
            datasets: 8,
            chunks_per_dataset: 640,
            chunk_size: 64 << 20,
            zipf_exponent: 1.1,
            diurnal_amplitude: 0.5,
            diurnal_period_s: 3600.0,
            bursts: vec![BurstSpec {
                start_s: 1200.0,
                duration_s: 300.0,
                dataset: 2,
                multiplier: 8.0,
            }],
        }
    }
}

json_object! {
    TraceSpec {
        name: "name",
        seed: "seed",
        records: "records",
        duration_s: "duration_s",
        clients: "clients",
        datasets: "datasets",
        chunks_per_dataset: "chunks_per_dataset",
        chunk_size: "chunk_size",
        zipf_exponent: "zipf_exponent",
        diurnal_amplitude: "diurnal_amplitude",
        diurnal_period_s: "diurnal_period_s",
        bursts: "bursts",
    }
    BurstSpec {
        start_s: "start_s",
        duration_s: "duration_s",
        dataset: "dataset",
        multiplier: "multiplier",
    }
}

impl TraceSpec {
    /// Serializes to a JSON object (pretty-print with
    /// [`Json::to_pretty`]).
    pub fn to_json(&self) -> Json {
        self.put()
    }

    /// Parses and validates a spec from JSON text. Missing fields fall
    /// back to [`TraceSpec::default`], so a spec file only has to name
    /// what it changes; a burst names all four of its keys.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON, a wrongly-typed
    /// field, or a value [`TraceSpec::validate`] rejects.
    pub fn from_json_str(text: &str) -> Result<TraceSpec, String> {
        let v = Json::parse(text).map_err(|e| format!("bad spec JSON: {e}"))?;
        let mut spec = TraceSpec::default();
        spec.fill(&v, "spec").map_err(|e| e.0)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec is generatable.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.records == 0 {
            return Err("records must be at least 1".to_string());
        }
        if self.records > MAX_RECORDS {
            return Err(format!("records must be at most {MAX_RECORDS}"));
        }
        if self.clients == 0 || self.datasets == 0 || self.chunks_per_dataset == 0 {
            return Err("clients, datasets, and chunks_per_dataset must be at least 1".to_string());
        }
        if self.chunks_per_dataset > MAX_CHUNKS {
            return Err(format!("chunks_per_dataset must be at most {MAX_CHUNKS}"));
        }
        if self.chunk_size > u64::from(u32::MAX) {
            return Err(format!("chunk_size must be at most {}", u32::MAX));
        }
        // NaN fails every comparison below, so NaN inputs are rejected.
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.duration_s) {
            return Err("duration_s must be positive".to_string());
        }
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent >= 0.0) {
            return Err("zipf_exponent must be non-negative".to_string());
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err("diurnal_amplitude must be in [0, 1)".to_string());
        }
        if !positive(self.diurnal_period_s) {
            return Err("diurnal_period_s must be positive".to_string());
        }
        for b in &self.bursts {
            if b.dataset >= self.datasets {
                return Err(format!(
                    "burst dataset {} out of range (datasets = {})",
                    b.dataset, self.datasets
                ));
            }
            if !(b.multiplier.is_finite() && b.multiplier >= 1.0) {
                return Err("burst multiplier must be at least 1".to_string());
            }
            if !(b.start_s.is_finite() && b.start_s >= 0.0 && positive(b.duration_s)) {
                return Err("burst start_s/duration_s must be non-negative/positive".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let spec = TraceSpec::default();
        let text = spec.to_json().to_pretty();
        let back = TraceSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn missing_fields_fall_back_to_defaults() {
        let spec = TraceSpec::from_json_str(r#"{"records": 42, "seed": 9}"#).unwrap();
        assert_eq!(spec.records, 42);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.datasets, TraceSpec::default().datasets);
        // 2^53 + 1 would run as its neighbour 2^53.
        assert_eq!(
            TraceSpec::from_json_str(r#"{"seed": 9007199254740993}"#),
            Err("field \"seed\" must be below 2^53".to_string())
        );
    }

    #[test]
    fn unknown_keys_are_refused_by_name() {
        assert_eq!(
            TraceSpec::from_json_str(r#"{"records": 10, "sede": 3}"#),
            Err("unknown field \"sede\" in \"spec\"".to_string())
        );
        let burst = r#"{"bursts": [{"dataset": 0, "start_s": 0, "duration_s": 1,
            "multiplier": 2, "multipler": 3}]}"#;
        assert_eq!(
            TraceSpec::from_json_str(burst),
            Err("unknown field \"multipler\" in \"bursts\"".to_string())
        );
    }

    #[test]
    fn records_are_bounded() {
        let spec = |records| TraceSpec {
            records,
            ..TraceSpec::default()
        };
        assert_eq!(spec(MAX_RECORDS).validate(), Ok(()));
        for records in [MAX_RECORDS + 1, u64::MAX] {
            assert_eq!(
                spec(records).validate(),
                Err("records must be at most 4294967296".to_string())
            );
        }
    }

    #[test]
    fn chunk_columns_fit_in_u32() {
        let spec = |chunks_per_dataset, chunk_size| TraceSpec {
            chunks_per_dataset,
            chunk_size,
            ..TraceSpec::default()
        };
        assert_eq!(spec(MAX_CHUNKS, u64::from(u32::MAX)).validate(), Ok(()));
        assert_eq!(
            spec(MAX_CHUNKS + 1, 1).validate(),
            Err("chunks_per_dataset must be at most 4294967296".to_string())
        );
        assert_eq!(
            spec(1, 1 << 32).validate(),
            Err("chunk_size must be at most 4294967295".to_string())
        );
    }

    #[test]
    fn validation_rejects_bad_values() {
        for bad in [
            r#"{"records": 0}"#,
            r#"{"datasets": 0}"#,
            r#"{"duration_s": 0}"#,
            r#"{"diurnal_amplitude": 1.5}"#,
            r#"{"bursts": [{"dataset": 99, "start_s": 0, "duration_s": 1, "multiplier": 2}]}"#,
            r#"{"bursts": [{"dataset": 0, "start_s": 0, "duration_s": 1, "multiplier": 0.5}]}"#,
        ] {
            assert!(TraceSpec::from_json_str(bad).is_err(), "{bad}");
        }
        assert!(TraceSpec::from_json_str("not json").is_err());
        assert!(TraceSpec::from_json_str(r#"{"records": "many"}"#).is_err());
    }
}
