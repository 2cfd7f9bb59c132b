//! Table I: time for the scanning component of a proxy-based approach vs. the time
//! ExSample needs to reach 10 %, 50 % and 90 % of all instances, for every query on
//! every dataset.
//!
//! The paper's argument is architectural: a proxy model must decode and score every
//! frame before it can rank anything (measured at ~100 fps), while ExSample starts
//! sampling immediately and is bounded by the detector (~20 fps on sampled frames).
//! Across all 40+ queries the proxy's scan alone already exceeds the time ExSample
//! needs to reach 90 % recall.
//!
//! All of a dataset's queries execute as concurrent queries of one
//! `exsample-engine` engine over the shared repository — the multiplexed shape
//! a production deployment would use — with per-query recall targets expressed
//! as engine `true_limit`s and each query reading its own recall trajectory
//! out of the engine report.
//!
//! The default configuration runs the dataset analogs at a reduced scale (both the
//! scan time and ExSample's sampling time shrink proportionally, so the comparison
//! is preserved); `--full` uses the full-size analogs.

use exsample_bench::{banner, experiment_engine, ok_or_exit, print_table, ExperimentOptions};
use exsample_core::ExSampleConfig;
use exsample_data::datasets::{all_datasets, DatasetAnalog};
use exsample_detect::{Detector, ObjectClass, PerfectDetector};
use exsample_engine::{ExSamplePolicy, QuerySpec};
use exsample_rand::SeedSequence;
use exsample_sim::{format_duration, metrics, Table};
use exsample_video::DecodeCostModel;
use std::sync::Arc;

fn main() {
    let options = ExperimentOptions::from_env();
    banner(
        "Table I",
        "proxy scan time vs. ExSample time to 10/50/90% of instances",
        &options,
    );

    let scale = options.scale_or(0.2);
    let cost = DecodeCostModel::paper();
    let seeds = SeedSequence::new(options.seed).derive("table1");

    println!(
        "# dataset scale: {scale} (times scale linearly with dataset size; the scan-vs-sample comparison is scale-invariant)"
    );
    println!(
        "# worker threads: {} (outcomes are invariant to them; they only move detector work)\n",
        options.effective_threads(),
    );

    let mut table = Table::new(vec![
        "dataset",
        "proxy (scan)",
        "category",
        "instances",
        "10%",
        "50%",
        "90%",
        "exsample beats scan @90%",
    ]);

    let mut queries = 0usize;
    let mut wins = 0usize;

    for spec in all_datasets() {
        let dataset = DatasetAnalog::new(spec.clone(), seeds.derive(spec.name).seed())
            .with_scale(scale)
            .generate();
        let scan_secs = cost.proxy_scoring_secs(dataset.total_frames());
        let truth = dataset.ground_truth();

        // One engine for the whole dataset: every class query runs
        // concurrently over the shared repository.
        let detectors: Vec<Box<dyn Detector>> = spec
            .classes
            .iter()
            .map(|c| {
                options.faulty_detector(Box::new(PerfectDetector::new(
                    Arc::clone(truth),
                    ObjectClass::from(c.class),
                )))
            })
            .collect();
        let totals: Vec<usize> = spec
            .classes
            .iter()
            .map(|c| truth.count_of_class(&ObjectClass::from(c.class)))
            .collect();
        let mut engine = ok_or_exit(experiment_engine(&options));
        for ((class_spec, detector), &total) in spec.classes.iter().zip(&detectors).zip(&totals) {
            let class = class_spec.class;
            let target = (0.9 * total as f64).ceil() as usize;
            let mut query = QuerySpec::new(
                class,
                Box::new(ExSamplePolicy::new(
                    ExSampleConfig::default(),
                    dataset.chunking(),
                )),
                detector.as_ref(),
            )
            .seed(seeds.derive(spec.name).derive(class).seed())
            .batch(8)
            .frame_budget(dataset.total_frames());
            if total > 0 {
                query = query.true_limit(target);
            }
            engine.push(query).expect("valid query spec");
        }
        let report = ok_or_exit(engine.run());

        for (outcome, &total) in report.outcomes.iter().zip(&totals) {
            // The run to 90% recall yields the whole trajectory, from which the
            // lower recall levels are read off.
            let time_at = |recall: f64| -> String {
                let target = (recall * total as f64).ceil() as usize;
                metrics::frames_to_count(&outcome.trajectory, target)
                    .map(|frames| format_duration(cost.sampled_processing_secs(frames)))
                    .unwrap_or_else(|| "-".to_string())
            };
            let target90 = (0.9 * total as f64).ceil() as usize;
            let beats = metrics::frames_to_count(&outcome.trajectory, target90)
                .map(|frames| cost.sampled_processing_secs(frames) < scan_secs);
            queries += 1;
            if beats == Some(true) {
                wins += 1;
            }
            table.push_row(vec![
                spec.name.to_string(),
                format_duration(scan_secs),
                outcome.label.clone(),
                format!("{total}"),
                time_at(0.1),
                time_at(0.5),
                time_at(0.9),
                match beats {
                    Some(true) => "yes".to_string(),
                    Some(false) => "no".to_string(),
                    None => "-".to_string(),
                },
            ]);
        }
    }

    print_table(&options, &table);
    println!();
    println!("# {wins}/{queries} queries reach 90% of instances with ExSample before a proxy");
    println!("# model would even finish scanning/scoring the dataset (the paper reports this");
    println!("# holds for all of its queries; lower recalls are reached orders of magnitude");
    println!("# sooner).");
}
