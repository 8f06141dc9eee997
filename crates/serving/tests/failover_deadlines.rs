//! Deadlines across the sharded → planned failover: a request whose
//! deadline passes while the sharded attempt runs is shed alone as
//! `DeadlineExceeded` before the hedged re-dispatch, never turned into a
//! whole-batch `Stopped`.
//!
//! This binary arms process-global fault points, so it holds its one test
//! alone.

use std::time::Duration;

use gcn::{GcnConfig, GcnModel};
use graph::rmat::RmatConfig;
use graph::Graph;
use resilience::fault::{self, FaultConfig, FaultKind};
use serving::{GcnService, Rejection, ServiceConfig};
use shard::PartitionKind;

/// Every batch sleeps past the latency budget at `serving.batch` (after
/// the lane took it, so the queue never sheds it), then every shard task
/// panics, so the sharded attempt fails and the batch fails over with
/// every deadline gone.
#[test]
fn deadlines_passed_during_a_failed_sharded_attempt_shed_each_request() {
    let g = Graph::rmat(&RmatConfig::power_law(8, 6), 5);
    let model = GcnModel::new(&GcnConfig::paper_model(8, 16, 2), 2);
    let x = g.random_features(8, 9);
    let a = g.normalized_adjacency().expect("adjacency normalizes");
    let mut cfg = ServiceConfig::single_tenant();
    cfg.lanes = 1;
    cfg.batch_window = Duration::ZERO;
    cfg.latency_budget = Duration::from_millis(60);
    let svc = GcnService::sharded(model, a, x, 2, PartitionKind::Rows1D, cfg).expect("starts");
    let _armed = fault::arm(
        FaultConfig::new(11)
            .latency(Duration::from_millis(150))
            .point("serving.batch", FaultKind::Latency, 1.0)
            .point("shard.task", FaultKind::Panic, 1.0),
    );
    let handles: Vec<_> = (0..6)
        .map(|v| svc.submit_vertex(0, v * 5).expect("admits"))
        .collect();
    for h in handles {
        match h.wait() {
            Err(Rejection::DeadlineExceeded { budget }) => {
                assert_eq!(budget, Duration::from_millis(60));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    let m = svc.shutdown();
    assert_eq!(m.completed, 0);
    assert_eq!(m.shed_deadline, 6);
    assert!(m.failovers > 0, "no batch reached the failover");
}
