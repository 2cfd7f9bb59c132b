//! The metric tables: every end-to-end and per-layer metric the benchmark
//! reports, with unit, direction and (end to end) regression bound.
//! `BENCHMARK.json` at the repository root carries the same tables; a unit
//! test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression.
    pub bound: f64,
    /// Whether the metric is made of counts only, so that it must repeat
    /// exactly when the same code runs the same seed again.
    pub exact: bool,
    /// Two readings this close, in the metric's unit, agree whatever their
    /// ratio.
    pub slack: f64,
}

/// The end-to-end metrics, reported by every workload.
///
/// One bound per metric has to hold on all five workloads and between runs
/// made with different seeds, so each is about three times the widest spread
/// (interquartile range over ten seeds, as a share of the median) seen on any
/// workload in two sets of runs on the reference host: for `wall_s` 6-7 % on
/// `dashcam_gpu`, whose frames to recall differ most from seed to seed, and up
/// to 11 % on the CPU- and disk-bound workloads when the host drifts; for the
/// counts 5-7 % on `dashcam_gpu`; for `peak_rss_mib` 6-9 %.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        slack: 0.0,
    },
    EndToEnd {
        name: "detector_frames",
        unit: "count",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
        slack: 0.0,
    },
    EndToEnd {
        name: "savings_vs_random",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
        exact: true,
        slack: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        slack: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        // Three workloads set up in well under a millisecond.
        slack: 0.02,
    },
];

/// End-to-end values of one run, in [`END_TO_END`] order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndValues {
    pub wall_s: f64,
    pub detector_frames: f64,
    pub savings_vs_random: f64,
    pub peak_rss_mib: f64,
    pub setup_s: f64,
}

impl EndToEndValues {
    pub fn in_order(&self) -> [f64; END_TO_END.len()] {
        [
            self.wall_s,
            self.detector_frames,
            self.savings_vs_random,
            self.peak_rss_mib,
            self.setup_s,
        ]
    }
}

macro_rules! ledger {
    ($($field:ident),* $(,)?) => {
        /// Additive per-iteration measurements of the layers, summed over the
        /// traced iterations of a run.  Ratios are derived from the sums in
        /// [`Ledger::values`], never averaged.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Ledger {
            $(pub $field: f64,)*
        }

        impl Ledger {
            /// Add another iteration's measurements.
            pub fn absorb(&mut self, other: &Ledger) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

ledger!(
    iterations,
    traced_wall_s,
    untraced_wall_s,
    generate_s,
    pick_s,
    pick_calls,
    picked_frames,
    record_s,
    class_max_picks,
    selection_picks,
    hit_frames,
    processed_frames,
    detect_calls,
    detect_frames,
    detect_busy_s,
    detect_union_s,
    detect_inner_s,
    observe_s,
    observe_calls,
    engine_run_s,
    engine_self_s,
    stages,
    demanded_frames,
    engine_detector_frames,
    logical_calls,
    physical_calls,
    merge_s,
    cache_hits,
    cache_misses,
    cache_evictions,
    checkpointed_run_s,
    checkpoint_overhead_s,
    checkpointed_stages,
    recover_s,
    records_replayed,
    compactions,
    log_bytes,
    snapshot_bytes,
    observations,
    sim_run_s,
    sim_runs,
    sim_exsample_s,
    sim_exsample_frames,
    sim_random_s,
    sim_random_frames,
);

/// A metric of a single layer; no bound.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    value: fn(&Ledger) -> f64,
}

/// `a / b`, or 0 when the layer was never entered.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $value:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            value: $value,
        }
    };
}

/// Per-iteration mean of an additive field.
macro_rules! mean {
    ($field:ident) => {
        |l| ratio(l.$field, l.iterations)
    };
}

/// The per-layer metrics, reported by every workload from its traced
/// iterations (0 where the workload never enters the layer).  Times and
/// counts are means per iteration, so they add up to `trace.wall_s`.
pub const PER_LAYER: [Layer; 44] = [
    layer!("trace.wall_s", "s", Lower, mean!(traced_wall_s)),
    layer!("trace_overhead", "ratio", Lower, |l| {
        if l.untraced_wall_s > 0.0 {
            l.traced_wall_s / l.untraced_wall_s - 1.0
        } else {
            0.0
        }
    }),
    layer!("exsample-data.generate_s", "s", Lower, mean!(generate_s)),
    layer!("exsample-core.pick_s", "s", Lower, mean!(pick_s)),
    layer!(
        "exsample-core.pick_calls",
        "count",
        Lower,
        mean!(pick_calls)
    ),
    layer!(
        "exsample-core.picked_frames",
        "count",
        Lower,
        mean!(picked_frames)
    ),
    layer!("exsample-core.record_s", "s", Lower, mean!(record_s)),
    layer!("exsample-core.class_fold_share", "ratio", Higher, |l| {
        ratio(l.class_max_picks, l.selection_picks)
    }),
    layer!("exsample-core.hit_rate", "ratio", Higher, |l| {
        ratio(l.hit_frames, l.processed_frames)
    }),
    layer!("exsample-detect.calls", "count", Lower, mean!(detect_calls)),
    layer!(
        "exsample-detect.frames",
        "count",
        Lower,
        mean!(detect_frames)
    ),
    layer!("exsample-detect.batch_mean", "frames", Higher, |l| {
        ratio(l.detect_frames, l.detect_calls)
    }),
    layer!("exsample-detect.busy_s", "s", Lower, mean!(detect_busy_s)),
    layer!("exsample-detect.union_s", "s", Lower, mean!(detect_union_s)),
    layer!("exsample-detect.overlap_ratio", "ratio", Higher, |l| {
        ratio(l.detect_busy_s, l.detect_union_s)
    }),
    layer!("exsample-detect.inner_s", "s", Lower, mean!(detect_inner_s)),
    layer!("exsample-track.observe_s", "s", Lower, mean!(observe_s)),
    layer!(
        "exsample-track.observe_calls",
        "count",
        Lower,
        mean!(observe_calls)
    ),
    layer!("exsample-engine.self_s", "s", Lower, mean!(engine_self_s)),
    layer!("exsample-engine.stages", "count", Lower, mean!(stages)),
    layer!("exsample-engine.self_us_per_stage", "us", Lower, |l| {
        ratio(l.engine_self_s, l.stages) * 1e6
    }),
    layer!("exsample-engine.detector_idle_s", "s", Lower, |l| {
        ratio((l.engine_run_s - l.detect_union_s).max(0.0), l.iterations)
    }),
    layer!(
        "exsample-engine.demanded_frames",
        "count",
        Lower,
        mean!(demanded_frames)
    ),
    layer!("exsample-engine.coalesced_frames", "count", Higher, |l| {
        ratio(l.demanded_frames - l.engine_detector_frames, l.iterations)
    }),
    layer!(
        "exsample-engine.physical_calls_per_logical",
        "ratio",
        Lower,
        |l| { ratio(l.physical_calls, l.logical_calls) }
    ),
    layer!("exsample-engine.merge_s", "s", Lower, mean!(merge_s)),
    layer!(
        "exsample-engine.cache.hits",
        "count",
        Higher,
        mean!(cache_hits)
    ),
    layer!(
        "exsample-engine.cache.misses",
        "count",
        Lower,
        mean!(cache_misses)
    ),
    layer!(
        "exsample-engine.cache.evictions",
        "count",
        Lower,
        mean!(cache_evictions)
    ),
    layer!("exsample-engine.cache.hit_rate", "ratio", Higher, |l| {
        ratio(l.cache_hits, l.cache_hits + l.cache_misses)
    }),
    layer!(
        "exsample-store.checkpointed_run_s",
        "s",
        Lower,
        mean!(checkpointed_run_s)
    ),
    layer!(
        "exsample-store.checkpoint_overhead_s",
        "s",
        Lower,
        mean!(checkpoint_overhead_s)
    ),
    layer!("exsample-store.commit_us_per_stage", "us", Lower, |l| {
        ratio(l.checkpoint_overhead_s, l.checkpointed_stages) * 1e6
    }),
    layer!("exsample-store.recover_s", "s", Lower, mean!(recover_s)),
    layer!(
        "exsample-store.records_replayed",
        "count",
        Lower,
        mean!(records_replayed)
    ),
    layer!(
        "exsample-store.compactions",
        "count",
        Lower,
        mean!(compactions)
    ),
    layer!("exsample-store.log_bytes", "bytes", Lower, mean!(log_bytes)),
    layer!(
        "exsample-store.snapshot_bytes",
        "bytes",
        Lower,
        mean!(snapshot_bytes)
    ),
    layer!(
        "exsample-store.bytes_per_observation",
        "bytes",
        Lower,
        |l| { ratio(l.log_bytes + l.snapshot_bytes, l.observations) }
    ),
    layer!("exsample-sim.run_s", "s", Lower, mean!(sim_run_s)),
    layer!("exsample-sim.runs", "count", Lower, mean!(sim_runs)),
    layer!("exsample-sim.exsample_us_per_frame", "us", Lower, |l| {
        ratio(l.sim_exsample_s, l.sim_exsample_frames) * 1e6
    }),
    layer!("exsample-sim.random_us_per_frame", "us", Lower, |l| {
        ratio(l.sim_random_s, l.sim_random_frames) * 1e6
    }),
    layer!(
        "exsample-sim.random_frames",
        "count",
        Lower,
        mean!(sim_random_frames)
    ),
];

impl Ledger {
    /// The per-layer metric values, in [`PER_LAYER`] order.
    pub fn values(&self) -> Vec<f64> {
        PER_LAYER.iter().map(|layer| (layer.value)(self)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::valid_name;
    use std::collections::HashSet;

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = HashSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn ledger_sums_then_derives_ratios() {
        let one = Ledger {
            iterations: 1.0,
            traced_wall_s: 1.1,
            untraced_wall_s: 1.0,
            detect_calls: 10.0,
            detect_frames: 40.0,
            detect_busy_s: 2.0,
            detect_union_s: 1.0,
            engine_run_s: 1.25,
            cache_hits: 3.0,
            cache_misses: 1.0,
            ..Ledger::default()
        };
        let mut total = Ledger::default();
        total.absorb(&one);
        total.absorb(&one);
        let values = total.values();
        let get = |name: &str| values[PER_LAYER.iter().position(|l| l.name == name).unwrap()];
        assert_eq!(get("exsample-detect.calls"), 10.0);
        assert_eq!(get("exsample-detect.batch_mean"), 4.0);
        assert_eq!(get("exsample-detect.overlap_ratio"), 2.0);
        assert_eq!(get("exsample-engine.detector_idle_s"), 0.25);
        assert_eq!(get("exsample-engine.cache.hit_rate"), 0.75);
        assert!((get("trace_overhead") - 0.1).abs() < 1e-12);
        assert!((get("trace.wall_s") - 1.1).abs() < 1e-12);
        // Layers a workload never enters read 0, not NaN.
        assert!(Ledger::default().values().iter().all(|v| *v == 0.0));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints.  They must name the same metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();

        let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (json, table) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(json, "name"), table.name);
            assert_eq!(field(json, "unit"), table.unit);
            assert_eq!(field(json, "better"), table.better.as_str());
            assert_eq!(json.get("bound").and_then(Json::as_f64), Some(table.bound));
        }
        let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (json, table) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(json, "name"), table.name);
            assert_eq!(field(json, "unit"), table.unit);
            assert_eq!(field(json, "better"), table.better.as_str());
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for (json, workload) in workloads.iter().zip(crate::workloads::ALL) {
            assert_eq!(field(json, "why"), workload.why);
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
    }
}
