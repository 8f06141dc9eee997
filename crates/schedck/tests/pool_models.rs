//! Model-checks two more workspace protocols: the pool's
//! quarantine/respawn rendezvous (`crates/pool/src/lib.rs`, the
//! `reap_and_respawn` path) and the shard executor's exchange-retry
//! loop (`crates/shard/src/runner.rs` staging under
//! `resilience::retry::run`). Both are small condvar/mutex handshakes
//! whose liveness and publication guarantees the explorer proves over
//! every preemption-bounded interleaving.

use schedck::{explore, Config, MCell};

/// Quarantine/respawn: a worker trips its fault budget and
/// self-quarantines instead of taking the job; the supervisor observes
/// the flag under the slot mutex and spawns a replacement, which runs
/// the job and signals completion. Mirrors the pool's invariant that a
/// quarantined worker's slot is refilled before the job is considered
/// lost.
#[test]
fn quarantine_respawn_rendezvous_is_clean() {
    struct Slot {
        quarantined: bool,
        job_done: bool,
    }

    let cfg = Config {
        preemption_bound: 2,
        max_schedules: 60_000,
        max_steps: 20_000,
    };
    let report = explore(cfg, |th| {
        let mx = th.mutex("pool.slot");
        let cv = th.condvar();
        let slot = th.cell(
            "slot-state",
            Slot {
                quarantined: false,
                job_done: false,
            },
        );
        let out = th.cell("job-output", 0u64);

        // The doomed worker: hits its fault budget, marks itself
        // quarantined under the slot lock, and exits without touching
        // the job.
        let (s1, mx1, cv1) = (slot.clone(), mx, cv);
        let doomed = th.spawn(move |th| {
            let _g = mx1.lock(th);
            s1.write(th, |s| s.quarantined = true);
            cv1.notify_all(th);
        });

        // The supervisor (root): waits for the quarantine report, then
        // respawns the slot with a fresh worker.
        let mut g = mx.lock(th);
        while !slot.read(th, |s| s.quarantined) {
            g = cv.wait(g);
        }
        slot.write(th, |s| s.quarantined = false);
        drop(g);

        let (s2, o2, mx2, cv2) = (slot.clone(), out.clone(), mx, cv);
        let replacement = th.spawn(move |th| {
            o2.write(th, |v| *v = 77);
            let _g = mx2.lock(th);
            s2.write(th, |s| s.job_done = true);
            cv2.notify_all(th);
        });

        let mut g = mx.lock(th);
        while !slot.read(th, |s| s.job_done) {
            g = cv.wait(g);
        }
        drop(g);
        // The mutex handoff publishes the replacement's job output.
        assert_eq!(out.read(th, |v| *v), 77);

        th.join(doomed);
        th.join(replacement);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(!report.truncated);
}

/// Exchange-retry: two workers stage disjoint blocks; each hits one
/// injected fault on its first attempt and replays the (idempotent)
/// staging write, then records bytes and recoveries under the shared
/// counter mutex — the shape of `runner::update_task`'s
/// `retry::run(|| stage_block(..))` with `recovered_exchanges`
/// accounting. The explorer proves replayed writes stay self-ordered
/// and the counters publish to the joiner.
#[test]
fn exchange_retry_replay_is_clean() {
    struct Counters {
        staged: u64,
        recovered: u64,
    }

    const BYTES: u64 = 64;

    let cfg = Config {
        preemption_bound: 2,
        max_schedules: 60_000,
        max_steps: 20_000,
    };
    let report = explore(cfg, |th| {
        let mx = th.mutex("shard.counters");
        let counters = th.cell(
            "counters",
            Counters {
                staged: 0,
                recovered: 0,
            },
        );
        let buffers: Vec<MCell<u64>> = (0..2).map(|_| th.cell("stage-buffer", 0u64)).collect();

        let mut joins = Vec::new();
        for (i, buf) in buffers.iter().enumerate() {
            let (buf, counters, mx) = (buf.clone(), counters.clone(), mx);
            joins.push(th.spawn(move |th| {
                let mut attempts = 0u64;
                loop {
                    attempts += 1;
                    // The staging write — idempotent by design, so the
                    // replay after a caught fault simply overwrites.
                    buf.write(th, |v| *v = 1000 + i as u64);
                    let fault = attempts == 1;
                    if !fault {
                        break;
                    }
                }
                let _g = mx.lock(th);
                counters.write(th, |c| {
                    c.staged += BYTES;
                    c.recovered += attempts - 1;
                });
            }));
        }
        for j in joins {
            th.join(j);
        }
        let _g = mx.lock(th);
        counters.read(th, |c| {
            assert_eq!(c.staged, 2 * BYTES);
            assert_eq!(c.recovered, 2, "each worker recovered exactly once");
        });
        drop(_g);
        // join edges publish the (replayed) staging writes.
        for (i, b) in buffers.iter().enumerate() {
            assert_eq!(b.read(th, |v| *v), 1000 + i as u64);
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(!report.truncated);
    assert!(report.schedules > 10, "expected a real exploration");
}
