//! Figure 6: per-chunk instance histograms and the skew metric `S` for
//! representative queries.
//!
//! The paper explains its Figure 5 extremes with the chunk-level structure of five
//! queries: dashcam/bicycle (very skewed, S≈14, large savings), BDD-1k/motor
//! (skewed but diluted over 1000 chunks, S≈19), night-street/person (moderate skew,
//! S≈4.5), archie/car (nearly uniform, S≈1.1) and amsterdam/boat (nearly uniform,
//! S≈1.6, the worst case).  This experiment prints each analog's chunk histogram
//! summary, the realised skew metric, and the instance count, next to the values
//! the paper reports.

use super::{ExperimentError, ExperimentOptions, Report};
use exsample_data::datasets::{amsterdam, archie, bdd1k, dashcam, night_street, DatasetAnalog};
use exsample_data::skewgen::skew_metric;
use exsample_detect::ObjectClass;
use exsample_rand::SeedSequence;
use exsample_sim::Table;

/// Run Figure 6's skew profiles (it cannot fail).
pub fn run(options: &ExperimentOptions) -> Result<Report, ExperimentError> {
    let scale = options.scale_or(0.25);
    let seeds = SeedSequence::new(options.seed).derive("fig6");

    // (spec, class, paper N, paper S, paper savings note)
    let cases = [
        (dashcam(), "bicycle", 249usize, 14.0, "savings ~7x"),
        (bdd1k(), "motor", 509, 19.0, "savings ~2x"),
        (night_street(), "person", 2_078, 4.5, "savings ~3x"),
        (archie(), "car", 33_546, 1.1, "savings ~1x"),
        (amsterdam(), "boat", 588, 1.6, "savings ~0.9x"),
    ];

    let mut table = Table::new(vec![
        "query",
        "chunks",
        "instances (analog)",
        "paper N",
        "skew S (analog)",
        "paper S",
        "top-5 chunk share",
        "paper note",
    ]);

    for (spec, class_name, paper_n, paper_s, note) in cases {
        let dataset = DatasetAnalog::new(spec.clone(), seeds.derive(spec.name).seed())
            .with_scale(scale)
            .generate();
        let class = ObjectClass::from(class_name);
        let histogram = dataset.instances_per_chunk(&class);
        let total: usize = histogram.iter().sum();
        let mut sorted = histogram.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top5: usize = sorted.iter().take(5).sum();
        let s = skew_metric(&histogram);

        table.push_row(vec![
            format!("{}/{}", spec.name, class_name),
            format!("{}", histogram.len()),
            format!("{}", dataset.instance_count(&class)),
            format!("{paper_n}"),
            format!("{s:.1}"),
            format!("{paper_s}"),
            format!("{:.0}%", 100.0 * top5 as f64 / total.max(1) as f64),
            note.to_string(),
        ]);
    }

    Ok(Report {
        before: format!("# dataset scale: {scale}\n\n"),
        table,
        after: "
# The analog instance counts scale with --scale; the skew metric S is scale-
# free and should sit near the paper's reported values, explaining which
# queries benefit most from adaptive sampling.
"
        .to_string(),
    })
}
