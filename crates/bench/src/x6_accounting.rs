//! X6 — accounting overhead (Section 5.5: usage metering in proxies).
//!
//! The claim: metering "can be done either by counting the invocations of
//! each method, possibly assigning different costs to different methods,
//! or by metering the elapsed time". This measures what each mode adds to
//! a proxy call, and what journaling each charge adds on a server, where
//! every bound proxy has the server's journal attached.

use std::sync::Arc;
use std::time::Instant;

use ajanta_core::{AccessProtocol, Guarded, Journal, MeterMode, ProxyPolicy};
use ajanta_workloads::records::RecordSpec;

use crate::fixtures;

/// One metering mode's cost.
#[derive(Debug, Clone)]
pub struct AccountingRow {
    /// Mode name.
    pub mode: &'static str,
    /// Per-call cost, ns.
    pub per_call_ns: f64,
    /// Total charge accumulated during the measurement (sanity signal).
    pub charge: u64,
}

/// Runs `calls` invocations under each metering mode.
pub fn run(calls: u64) -> Vec<AccountingRow> {
    let spec = RecordSpec {
        count: 16,
        ..Default::default()
    };
    let modes: [(&'static str, MeterMode, bool); 4] = [
        ("off", MeterMode::Off, false),
        ("count + tariffs", MeterMode::Count, false),
        ("count + elapsed time", MeterMode::CountAndTime, false),
        (
            "count + elapsed time, journaled",
            MeterMode::CountAndTime,
            true,
        ),
    ];
    modes
        .iter()
        .map(|(name, mode, journaled)| {
            let resource = Guarded::new(
                fixtures::store(&spec),
                ProxyPolicy {
                    meter_mode: *mode,
                    default_tariff: 1,
                    tariffs: vec![("count".into(), 3)],
                    ..Default::default()
                },
            );
            let rq = fixtures::requester();
            let proxy = Arc::clone(&resource).get_proxy(&rq, 0).unwrap();
            if *journaled {
                let name = proxy.resource_name().clone();
                proxy
                    .control()
                    .attach_journal(Arc::new(Journal::new()), name);
            }
            // Warm-up.
            for _ in 0..100 {
                proxy.invoke(rq.domain, "count", &[], 0).unwrap();
            }
            let start = Instant::now();
            for _ in 0..calls {
                proxy.invoke(rq.domain, "count", &[], 0).unwrap();
            }
            let per_call_ns = start.elapsed().as_nanos() as f64 / calls as f64;
            let charge = proxy.control().meter().reading().charge;
            AccountingRow {
                mode: name,
                per_call_ns,
                charge,
            }
        })
        .collect()
}

/// Renders the table.
pub fn table(calls: u64) -> String {
    let rows = run(calls);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                crate::fmt_ns(r.per_call_ns),
                r.charge.to_string(),
            ]
        })
        .collect();
    crate::render_table(
        &format!("X6 — metering overhead per proxy call ({calls} calls)"),
        &["metering mode", "per call", "charge accumulated"],
        &rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_only_when_metering() {
        let rows = run(1_000);
        assert_eq!(rows[0].charge, 0); // off
                                       // count mode: warm-up (100) + calls (1000), tariff 3 each.
        assert_eq!(rows[1].charge, 3 * 1_100);
        assert_eq!(rows[2].charge, 3 * 1_100);
        assert_eq!(rows[3].charge, 3 * 1_100); // journaling charges nothing
    }

    #[test]
    fn metering_cost_is_modest() {
        let rows = run(5_000);
        // Counting should cost no more than ~20× the unmetered call —
        // the point is that it's in the same order of magnitude, not a
        // domain-crossing.
        assert!(rows[1].per_call_ns < rows[0].per_call_ns * 20.0 + 2_000.0);
    }
}
