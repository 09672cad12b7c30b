//! End-to-end integration: design the paper's machine through the public
//! API and check the cross-crate plumbing agrees with itself.

use hnlpu::experiments;
use hnlpu::model::zoo;
use hnlpu::tco::{DeploymentScale, UpdatePolicy};
use hnlpu::HnlpuSystem;

#[test]
fn design_and_evaluate_the_paper_machine() {
    let system = HnlpuSystem::design(zoo::gpt_oss_120b());
    assert_eq!(system.num_chips(), 16);

    // Physical plan consistent between chip report and array plan.
    let hn_area = system.chip_report().block("HN Array").unwrap().area_mm2;
    let plan_area = system.array_plan().area_mm2(system.tech());
    assert!((hn_area - plan_area).abs() < 1e-9);

    // Simulator consistent with the plan's projection timing.
    assert_eq!(
        system.engine().config.projection_cycles,
        system.array_plan().projection_cycles()
    );

    // Economics flow end to end.
    let t3 = system.table3(DeploymentScale::High);
    let (lo, hi) = t3.tco_advantage(UpdatePolicy::AnnualUpdates);
    assert!(lo < hi);
    assert!(lo > 10.0, "TCO advantage should be an order of magnitude");
}

#[test]
fn every_experiment_regenerates() {
    let reports = experiments::all();
    assert_eq!(reports.len(), 17);
    for r in &reports {
        assert!(!r.metrics.is_empty(), "{} has no rows", r.id);
        let md = r.render_markdown();
        assert!(md.contains(r.id));
        for m in &r.metrics {
            assert!(m.measured.is_finite(), "{}: {} is not finite", r.id, m.name);
        }
    }
}

#[test]
fn experiment_reports_serialize_to_json() {
    let report = experiments::tab2();
    let json = serde_json::to_string(&report).expect("serializes");
    assert!(json.contains("\"paper\""));
    let rows: serde_json::Value = serde_json::from_str(&json).expect("parses");
    assert_eq!(rows["id"], "TAB2");
}

#[test]
fn derived_systems_scale_sensibly() {
    let small = HnlpuSystem::design(zoo::llama3_8b());
    let big = HnlpuSystem::design(zoo::kimi_k2());
    assert!(big.num_chips() > small.num_chips());
    assert!(big.silicon_mm2() > small.silicon_mm2());
    assert!(
        big.nre(1).initial_build().mid() > small.nre(1).initial_build().mid(),
        "NRE must grow with model size"
    );
}
