//! The `dsig_top --once` demo end to end: the binary spawns a loopback fleet,
//! kills the golden's owner between its two samples, and must render what
//! the kill left behind — a degraded fleet or a dead one — and write both
//! the table and the drained event log.

use std::path::Path;
use std::process::Command;

/// Runs `dsig_top --once --spawn <backends>` with its outputs in a nested
/// directory that does not exist yet; returns the table and the event log.
fn run_demo(backends: usize) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("dsig-top-{}-{backends}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let table = dir.join("out").join("TOP_demo_fleet.txt");
    let events = dir.join("out").join("EVENTS_demo_fleet.txt");
    let output = Command::new(env!("CARGO_BIN_EXE_dsig_top"))
        .args([
            "--once",
            "--spawn",
            &backends.to_string(),
            "--interval-ms",
            "50",
            "--out",
        ])
        .arg(&table)
        .arg("--events")
        .arg(&events)
        .output()
        .expect("dsig_top starts");
    assert!(
        output.status.success(),
        "dsig_top --spawn {backends} exited with {}:\n{}{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let read = |path: &Path| std::fs::read_to_string(path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
    let written = (read(&table), read(&events));
    std::fs::remove_dir_all(&dir).ok();
    written
}

fn health_line(table: &str) -> &str {
    table
        .lines()
        .find(|line| line.starts_with("health "))
        .unwrap_or_else(|| panic!("no health line in:\n{table}"))
}

#[test]
fn a_three_backend_demo_degrades_and_logs_the_kill_and_the_recovery() {
    let (table, events) = run_demo(3);
    let health = health_line(&table);
    assert!(health.starts_with("health DEGRADED"), "{table}");
    assert!(health.contains("backed_off 1/3"), "{table}");
    assert!(
        table.contains("0 of 6 screens failed"),
        "failover must absorb the kill:\n{table}"
    );
    for name in ["backend.backed_off", "backend.recovered"] {
        assert!(events.contains(name), "{name} missing from the event log:\n{events}");
    }
}

#[test]
fn a_one_backend_demo_renders_the_dead_fleet_as_fail() {
    // The kill takes the whole fleet down: every screen after it fails, and
    // the console must still render, verdict FAIL, and write its files.
    let (table, events) = run_demo(1);
    assert!(health_line(&table).starts_with("health FAIL"), "{table}");
    assert!(table.contains("6 of 6 screens failed"), "{table}");
    assert!(events.contains("backend.backed_off"), "{events}");
}
