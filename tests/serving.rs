//! Integration: serving under admission control. The shed path is
//! deterministic and observable — a wedged queue sheds the *newest*
//! request with a typed error, the labeled `leaf_shed_total` counter
//! rises, and the fleet still reports availability 1.0: backpressure is
//! not an outage. Contrast with a leaf mid-replacement, which reports as
//! unavailable, not shed.

use std::time::Duration;

use scuba::cluster::dashboard::DashboardFeed;
use scuba::cluster::{
    AdmissionConfig, ClusterConfig, HostedCluster, LoadMode, LoadgenConfig, Request, ShedPolicy,
    INFLIGHT_GAUGE, QUEUE_DEPTH_GAUGE, SHED_COUNTER,
};
use scuba::columnstore::table::RetentionLimits;
use scuba::columnstore::Row;
use scuba::leaf::LeafError;
use scuba::query::Query;

struct Guard {
    prefix: String,
    dir: std::path::PathBuf,
    total: usize,
}
impl Drop for Guard {
    fn drop(&mut self) {
        for id in 0..self.total {
            if let Ok(ns) = scuba::shmem::ShmNamespace::new(&self.prefix, id as u32) {
                ns.unlink_all(8);
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn hosted(
    machines: usize,
    leaves: usize,
    admission: AdmissionConfig,
    tag: &str,
) -> (HostedCluster, Guard) {
    let prefix = format!("sv{tag}{}", std::process::id());
    let dir = std::env::temp_dir().join(format!("scuba_sv_{prefix}"));
    let _ = std::fs::remove_dir_all(&dir);
    let c = HostedCluster::with_admission(
        ClusterConfig {
            machines,
            leaves_per_machine: leaves,
            shm_prefix: prefix.clone(),
            disk_root: dir.clone(),
            leaf_memory_capacity: 1 << 30,
            retention: RetentionLimits::NONE,
        },
        admission,
    )
    .unwrap();
    (
        c,
        Guard {
            prefix,
            dir,
            total: machines * leaves,
        },
    )
}

fn fill(c: &HostedCluster, rows_per_leaf: i64) {
    for leaf in 0..c.total_leaves() {
        c.add_rows(
            leaf,
            "t",
            (0..rows_per_leaf)
                .map(|i| Row::at(i).with("v", i))
                .collect(),
            0,
        )
        .unwrap();
    }
}

type ParkedQuery =
    crossbeam::channel::Receiver<scuba::leaf::LeafResult<scuba::query::LeafQueryResult>>;

/// Occupy the leaf's worker with a ballast batch (to a table no query
/// reads), then keep submitting until the depth-1 queue sheds, returning
/// the receivers of the queries that *were* admitted (the one queued
/// behind the ballast). The ballast keeps the worker busy however fast a
/// query runs, so the queue fills; its own outcome is checked once the
/// queue has shed.
fn wedge(c: &HostedCluster, leaf: usize, q: &Query) -> (Vec<ParkedQuery>, LeafError) {
    c.with_host(leaf, |h| {
        let h = h.unwrap();
        let (reply, ballast) = crossbeam::channel::bounded(1);
        h.submit(Request::IngestBatch {
            table: "ballast".to_owned(),
            rows: (0..200_000).map(|i| Row::at(i).with("b", i)).collect(),
            now: 0,
            reply,
        })
        .unwrap();
        while h.queue_len() > 0 {
            std::thread::yield_now(); // until the worker takes the ballast
        }
        let mut parked = Vec::new();
        loop {
            match h.query_async(q) {
                Ok(rx) => parked.push(rx),
                Err(e) => {
                    ballast.recv().expect("worker answers").expect("ballast ok");
                    return (parked, e);
                }
            }
        }
    })
}

#[test]
fn shed_is_counted_and_the_fleet_stays_available() {
    let _x = scuba::obs::exclusive();
    scuba::obs::set_enabled(true);

    let (c, g) = hosted(
        1,
        2,
        AdmissionConfig {
            depth: 1,
            policy: ShedPolicy::RejectNewest,
        },
        "cnt",
    );
    fill(&c, 50);

    let q = Query::new("t", 0, i64::MAX);
    let mut all_parked = Vec::new();
    for leaf in 0..c.total_leaves() {
        let (parked, err) = wedge(&c, leaf, &q);
        assert!(err.is_shed(), "RejectNewest must shed with a shed error");
        assert!(
            matches!(err, LeafError::Busy { .. }),
            "RejectNewest sheds immediately with Busy, got {err:?}"
        );
        all_parked.extend(parked);
    }

    // The shed counter rose for every leaf, under its own label.
    for leaf in 0..c.total_leaves() {
        let key = format!("{}:{leaf}", g.prefix);
        let name = scuba::obs::labeled_name(SHED_COUNTER, &[("leaf", &key)]);
        assert!(
            scuba::obs::counter_value(&name).unwrap_or(0) > 0,
            "leaf {leaf} shed at least once"
        );
    }

    // Shedding is backpressure, not an outage: every leaf is up.
    assert_eq!(c.availability(), 1.0);

    // A fan-out query through the wedged fleet reports shed — not
    // unavailable — legs. (The cluster may have drained a slot between
    // the wedge and this probe; what must never happen is "unavailable".)
    let (_, stats) = c.query_detailed(&q);
    assert_eq!(stats.unavailable, 0, "no leaf is down");
    assert_eq!(
        stats.answered + stats.shed,
        c.total_leaves(),
        "every leg has a definitive outcome"
    );

    // The dashboard sees the same story: shed > 0, rolling == 0,
    // availability 1.0 — an operator can tell backpressure from a
    // rollover at a glance.
    let keys = (0..c.total_leaves())
        .map(|l| format!("{}:{l}", g.prefix))
        .collect();
    let mut feed = DashboardFeed::from_keys(keys);
    let row = feed.sample_metrics(Duration::ZERO);
    assert!(row.shed >= 2, "dashboard sums shed across leaves");
    assert_eq!(row.rolling, 0);
    assert_eq!(row.availability, 1.0);

    // Admitted work was untouched by the shedding around it.
    for rx in all_parked {
        let result = rx.recv().expect("worker answers").expect("query ok");
        assert_eq!(result.rows_matched, 50);
    }

    // Once drained, the depth gauge and inflight gauge return to zero.
    for leaf in 0..c.total_leaves() {
        let key = format!("{}:{leaf}", g.prefix);
        let name = scuba::obs::labeled_name(QUEUE_DEPTH_GAUGE, &[("leaf", &key)]);
        assert_eq!(scuba::obs::gauge_value(&name), Some(0));
    }
    assert_eq!(scuba::obs::gauge_value(INFLIGHT_GAUGE), Some(0));
}

#[test]
fn deadline_policy_blocks_then_sheds_with_deadline() {
    let _x = scuba::obs::exclusive();
    scuba::obs::set_enabled(true);

    let (c, _g) = hosted(
        1,
        1,
        AdmissionConfig {
            depth: 1,
            policy: ShedPolicy::BlockWithDeadline(Duration::from_millis(5)),
        },
        "dl",
    );
    fill(&c, 50);

    let q = Query::new("t", 0, i64::MAX);
    let (parked, err) = wedge(&c, 0, &q);
    assert!(err.is_shed());
    assert!(
        matches!(err, LeafError::Deadline { .. }),
        "BlockWithDeadline sheds with Deadline after the wait, got {err:?}"
    );
    for rx in parked {
        rx.recv().expect("worker answers").expect("query ok");
    }
}

#[test]
fn load_with_shedding_conserves_every_request() {
    // Serialize against the other tests here: loadgen moves the global
    // inflight gauge, which they assert returns to zero.
    let _x = scuba::obs::exclusive();
    // End to end: a closed-loop hammer against depth-1 queues sheds —
    // and the conservation invariant still holds. Nothing is silently
    // dropped; every leg is ok, shed, or unavailable, and with no leaf
    // down, unavailable stays zero.
    let (c, _g) = hosted(
        1,
        2,
        AdmissionConfig {
            depth: 1,
            policy: ShedPolicy::RejectNewest,
        },
        "lg",
    );
    fill(&c, 20);

    let stop = std::sync::atomic::AtomicBool::new(false);
    let report = scuba::cluster::loadgen::run(
        &c,
        &LoadgenConfig {
            seed: 5,
            workers: 6,
            mode: LoadMode::Closed,
            duration: Duration::from_millis(300),
            ingest_fraction: 0.5,
            rows_per_batch: 10,
            table: "t".into(),
        },
        &stop,
    );
    assert_eq!(report.lost(), 0, "issued == ok + shed + unavailable");
    assert_eq!(report.unavailable, 0, "no leaf was down");
    assert!(report.shed > 0, "depth-1 queues under 6 workers must shed");
    assert_eq!(
        c.total_rows() as u64,
        2 * 20 + report.rows_ingested,
        "admitted ingest all landed; shed ingest landed nowhere"
    );
}
