//! Workspace-level regeneration of Table I: every scenario must report
//! mitigated, with benign traffic unaffected.

use rddr_repro::vulns::{run_all, TABLE_I};

#[test]
fn all_ten_table_i_rows_are_mitigated() {
    let results = run_all();
    assert_eq!(results.len(), TABLE_I.len());
    for (row, report) in &results {
        assert!(
            report.mitigated(),
            "{} must be mitigated:\n{report}",
            row.cve
        );
        assert!(report.benign_ok, "{}: benign traffic must pass", row.cve);
        assert!(
            !report.leak_reached_client,
            "{}: no leak may reach the client",
            row.cve
        );
    }
}

#[test]
fn rendered_table_lists_every_row() {
    let results = run_all();
    let table = rddr_repro::vulns::render_table(&results);
    println!("{table}");
    for row in TABLE_I {
        assert!(table.contains(row.cve), "table must mention {}", row.cve);
    }
    assert!(
        !table.contains(" NO\n"),
        "no row may be unmitigated:\n{table}"
    );
}
