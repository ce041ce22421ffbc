//! Journal-backed job durability and cross-job memo coalescing.
//!
//! Contracts under test (ISSUE 7 acceptance pins):
//!
//! 1. **Kill-and-restart parity** — a daemon killed mid-job leaves a
//!    partial sweep journal; the restarted daemon re-enqueues the job,
//!    resumes from the journal without re-simulating completed points,
//!    and the final `result.json` is byte-identical to an uninterrupted
//!    run (extends the `sweep_resilience` patterns to the daemon).
//! 2. **Memo coalescing** — two concurrent jobs sharing grid points
//!    simulate the overlap exactly once, observed through the
//!    `sim.memo.hits` / `sim.memo.misses` counters in the `memsim-obs`
//!    export.
//! 3. Queue backpressure, cancellation, and result availability over the
//!    real HTTP surface.
//!
//! Every test that starts a daemon holds `memsim_obs::test_lock()`: the
//! metrics registry is process-global, so a sibling daemon's walks would
//! otherwise land in the coalescing test's `sim.memo.*` counters.

use memsim_core::jsontext::{get_str, get_u64, parse_json};
use memsim_server::client::Client;
use memsim_server::jobs::JobState;
use memsim_server::{Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memsim-srvjobs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(dir: &Path, workers: usize, queue: usize) -> Server {
    let mut config = ServerConfig::new(dir.to_path_buf());
    config.workers = workers;
    config.queue_depth = queue;
    Server::start(config).unwrap()
}

fn client_of(server: &Server) -> Client {
    Client::new(&server.addr().to_string())
}

const SPEC: &str = r#"{"artifact":"table4","workloads":"hash,bt","scale":"mini","shards":"seq"}"#;

/// Run SPEC to completion on a fresh daemon; return (result bytes,
/// journal bytes, job id).
fn reference_run(tag: &str) -> (Vec<u8>, Vec<u8>, String) {
    let dir = tmp_dir(tag);
    let server = start(&dir, 1, 8);
    let client = client_of(&server);
    let id = client.submit(SPEC).unwrap();
    assert_eq!(client.wait(&id, Duration::from_secs(120)).unwrap(), "done");
    let result = client.result(&id).unwrap();
    let journal =
        std::fs::read(dir.join("jobs").join(&id).join(memsim_core::JOURNAL_FILE)).unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (result, journal, id)
}

#[test]
fn killed_daemon_resumes_job_and_result_is_byte_identical() {
    let _guard = memsim_obs::test_lock();
    let (reference, journal, id) = reference_run("ref");
    let lines: Vec<&[u8]> = journal.split_inclusive(|&b| b == b'\n').collect();
    assert!(lines.len() >= 2, "need >=2 journaled points to truncate");

    // Reconstruct the crash site: the job directory as a killed daemon
    // would leave it — job.json present, journal truncated mid-sweep,
    // no result.
    let dir = tmp_dir("resume");
    let job_dir = dir.join("jobs").join(&id);
    std::fs::create_dir_all(&job_dir).unwrap();
    let job_doc = format!("{{\"id\":\"{id}\",\"spec\":{SPEC}}}");
    std::fs::write(job_dir.join("job.json"), job_doc).unwrap();
    let half: Vec<u8> = lines[..lines.len() / 2].concat();
    let kept_points = lines.len() / 2;
    std::fs::write(job_dir.join(memsim_core::JOURNAL_FILE), &half).unwrap();

    // Restart: the job must come back as queued, resume, and finish.
    let server = start(&dir, 1, 8);
    assert_eq!(server.resumed(), std::slice::from_ref(&id));
    let client = client_of(&server);
    assert_eq!(client.wait(&id, Duration::from_secs(120)).unwrap(), "done");

    // Byte-identical result despite the interruption.
    let resumed_result = client.result(&id).unwrap();
    assert_eq!(
        resumed_result, reference,
        "resumed result differs from uninterrupted run"
    );

    // No completed point was re-simulated: resumed points are served
    // from the journal without being re-appended, so the line count
    // matches the uninterrupted journal exactly.
    let resumed_journal = std::fs::read(job_dir.join(memsim_core::JOURNAL_FILE)).unwrap();
    assert_eq!(
        resumed_journal
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .count(),
        lines.len(),
        "journal grew past the uninterrupted run: completed points were re-simulated"
    );
    assert!(kept_points >= 1);

    // Status reflects the terminal state and progress.
    let status = client.status(&id).unwrap();
    let v = parse_json(&status).unwrap();
    let obj = v.as_obj().unwrap();
    assert_eq!(get_str(obj, "state").unwrap(), "done");
    assert_eq!(get_u64(obj, "points_done").unwrap() as usize, lines.len());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_jobs_coalesce_shared_points_in_the_memo() {
    let _guard = memsim_obs::test_lock();
    memsim_obs::reset();
    memsim_obs::set_enabled(true);
    memsim_obs::set_deterministic(true);

    // Phase 1: one job alone — measure how many structure simulations
    // the grid actually needs.
    let dir = tmp_dir("coalesce-single");
    let server = start(&dir, 1, 8);
    let client = client_of(&server);
    let id = client.submit(SPEC).unwrap();
    assert_eq!(client.wait(&id, Duration::from_secs(120)).unwrap(), "done");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let single_misses = memsim_obs::global()
        .counter_value("sim.memo.misses")
        .expect("memo misses counted");
    assert!(single_misses > 0);

    // Phase 2: two identical jobs racing on two workers sharing one
    // SimCache — the overlap must be simulated exactly once.
    memsim_obs::reset();
    let dir = tmp_dir("coalesce-pair");
    let server = start(&dir, 2, 8);
    let client = client_of(&server);
    let a = client.submit(SPEC).unwrap();
    let b = client.submit(SPEC).unwrap();
    assert_ne!(a, b, "each submission is its own job");
    assert_eq!(client.wait(&a, Duration::from_secs(120)).unwrap(), "done");
    assert_eq!(client.wait(&b, Duration::from_secs(120)).unwrap(), "done");

    // Both results identical except for the embedded job id.
    let ra = String::from_utf8(client.result(&a).unwrap()).unwrap();
    let rb = String::from_utf8(client.result(&b).unwrap()).unwrap();
    assert_eq!(
        ra.replace(&a, "<id>"),
        rb.replace(&b, "<id>"),
        "concurrent identical jobs must produce identical artifacts"
    );

    // The coalescing pin, read from the deterministic /metrics export
    // exactly as a monitoring client would.
    let metrics = client.metrics().unwrap();
    let v = parse_json(metrics.trim_end()).unwrap();
    let obj = v.as_obj().unwrap();
    assert_eq!(get_str(obj, "schema").unwrap(), "memsim-obs/1");
    let counters = obj["counters"].as_obj().unwrap();
    let misses = get_u64(counters, "sim.memo.misses").unwrap();
    let hits = get_u64(counters, "sim.memo.hits").unwrap();
    assert_eq!(
        misses, single_misses,
        "two overlapping jobs must miss exactly as often as one job: \
         every shared point simulated once"
    );
    assert!(
        hits >= single_misses,
        "the second job's points must all land as memo hits ({hits} hits \
         vs {single_misses} unique structures)"
    );
    assert_eq!(get_u64(counters, "server.jobs.completed").unwrap(), 2);

    server.shutdown();
    memsim_obs::set_enabled(false);
    memsim_obs::set_deterministic(false);
    memsim_obs::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backpressure_answers_503_with_retry_after_and_recovers() {
    let _guard = memsim_obs::test_lock();
    let dir = tmp_dir("backpressure");
    // No workers draining: set up a server whose queue fills and stays
    // full by submitting more than `queue` jobs before workers can run
    // them. A 1-deep queue with a slow first job makes this reliable.
    let server = start(&dir, 1, 1);
    let client = client_of(&server);

    // Fill: the first submit may start running immediately, the next
    // sits in the queue; keep submitting until the queue refuses.
    let mut accepted = Vec::new();
    let mut saw_503 = false;
    for _ in 0..8 {
        match client.request("POST", "/jobs", Some(SPEC)) {
            Ok((202, body)) => {
                let v = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
                accepted.push(get_str(v.as_obj().unwrap(), "id").unwrap().to_string());
            }
            Ok((503, _)) => {
                saw_503 = true;
                break;
            }
            other => panic!("unexpected submit outcome {other:?}"),
        }
    }
    assert!(saw_503, "queue never refused after 8 submissions");

    // The refusal carries Retry-After — read it off the raw socket.
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        SPEC.len(),
        SPEC
    )
    .unwrap();
    let mut raw = String::new();
    let refused = match s.read_to_string(&mut raw) {
        Ok(_) => raw,
        Err(e) => panic!("reading 503: {e}"),
    };
    if refused.starts_with("HTTP/1.1 503") {
        let line = refused
            .lines()
            .find(|l| l.to_ascii_lowercase().starts_with("retry-after:"))
            .unwrap_or_else(|| panic!("503 must carry Retry-After: {refused:?}"));
        let secs: u32 = line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!(
            (1..=60).contains(&secs),
            "Retry-After {secs} outside the 1..=60 clamp"
        );
    } else {
        // A worker drained the queue between the loop and this probe;
        // the earlier 503 already proved the backpressure path.
        assert!(refused.starts_with("HTTP/1.1 202"), "{refused:?}");
    }

    // Accepted jobs still complete — backpressure never corrupts state.
    for id in &accepted {
        assert_eq!(client.wait(id, Duration::from_secs(240)).unwrap(), "done");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_drains_and_is_terminal_over_http() {
    let _guard = memsim_obs::test_lock();
    let dir = tmp_dir("cancel");
    let server = start(&dir, 1, 8);
    let client = client_of(&server);

    // Saturate the single worker so the second job stays queued.
    let running = client.submit(SPEC).unwrap();
    let queued = client.submit(SPEC).unwrap();
    let state = client.cancel(&queued).unwrap();
    assert!(
        state == "cancelled" || state == "cancelling",
        "unexpected cancel state {state}"
    );
    let final_state = client.wait(&queued, Duration::from_secs(120)).unwrap();
    assert_eq!(final_state, "cancelled");

    // Its result never materializes (409), while the running job's does.
    let (code, _) = client
        .request("GET", &format!("/jobs/{queued}/result"), None)
        .unwrap();
    assert_eq!(code, 409);
    assert_eq!(
        client.wait(&running, Duration::from_secs(120)).unwrap(),
        "done"
    );

    // Cancelled state survives a restart (the marker is durable).
    server.shutdown();
    let server = start(&dir, 1, 8);
    assert_eq!(
        server.registry().get(&queued).unwrap().state(),
        JobState::Cancelled
    );
    assert!(server.resumed().is_empty(), "terminal jobs must not re-run");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_jobs_share_the_content_addressed_trace_store() {
    let _guard = memsim_obs::test_lock();
    memsim_obs::reset();
    memsim_obs::set_enabled(true);
    let dir = tmp_dir("replay");
    let server = start(&dir, 2, 8);
    let client = client_of(&server);
    let spec = r#"{"replay":"hash","designs":"baseline,nmm","scale":"mini"}"#;
    let a = client.submit(spec).unwrap();
    let b = client.submit(spec).unwrap();
    assert_eq!(client.wait(&a, Duration::from_secs(120)).unwrap(), "done");
    assert_eq!(client.wait(&b, Duration::from_secs(120)).unwrap(), "done");

    // Exactly one trace recorded for the shared (workload, scale) key.
    let traces: Vec<_> = std::fs::read_dir(dir.join("traces"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "trace"))
        .collect();
    assert_eq!(traces.len(), 1, "same workload+scale must share one trace");

    // Identical deterministic tables from both jobs.
    let ra = String::from_utf8(client.result(&a).unwrap()).unwrap();
    let rb = String::from_utf8(client.result(&b).unwrap()).unwrap();
    assert_eq!(ra.replace(&a, "<id>"), rb.replace(&b, "<id>"));
    let v = parse_json(&ra).unwrap();
    let obj = v.as_obj().unwrap();
    assert_eq!(get_str(obj, "kind").unwrap(), "replay");
    assert!(get_str(obj, "markdown").unwrap().contains("Baseline"));
    assert!(get_u64(obj, "events").unwrap() > 0);

    // Both jobs read the trace through the shared memo, keyed by the
    // trace's content-addressed path: the two structures (3L and NMM's
    // L4) are walked once, so the first job's two points miss and the
    // second job's two points hit.
    let metrics = client.metrics().unwrap();
    let v = parse_json(metrics.trim_end()).unwrap();
    let counters = v.as_obj().unwrap()["counters"].as_obj().unwrap();
    assert_eq!(get_u64(counters, "sim.memo.misses").unwrap(), 2);
    assert_eq!(get_u64(counters, "sim.memo.hits").unwrap(), 2);

    server.shutdown();
    memsim_obs::set_enabled(false);
    memsim_obs::reset();
    let _ = std::fs::remove_dir_all(&dir);
}
