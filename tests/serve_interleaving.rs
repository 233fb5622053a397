//! The multi-tenant determinism contract, pinned: N sessions pushed
//! through a [`WakeServer`] in arbitrarily interleaved, arbitrarily ragged
//! chunk schedules must each produce an outcome **byte-identical** to
//! running that session's capture alone through the batch path
//! (`HeadTalk::decide_batch` — the same engine fed the capture as one chunk) —
//! at `HT_THREADS=1` and `4`, with failing sessions interleaved in, with
//! slots recycled between sessions. Plus the admission-control invariants:
//! in-flight sessions never exceed capacity, and rejected or evicted
//! sessions leave no residual shard state.
//!
//! Every property here replays from a printed seed via `HT_CHECK_SEED`.

use headtalk::stream::WakeVerdict;
use headtalk::HeadTalk;
use ht_dsp::check::property;
use ht_serve::{
    noise_captures, run_load, toy_pipeline, LoadConfig, RejectReason, ServeConfig, ServeError,
    TokenBucketConfig, WakeServer,
};

/// One shared toy pipeline (training is milliseconds, but every server
/// borrows it).
fn pipeline() -> &'static HeadTalk {
    static PIPELINE: std::sync::OnceLock<HeadTalk> = std::sync::OnceLock::new();
    PIPELINE.get_or_init(toy_pipeline)
}

fn serve_config(ht: &HeadTalk, n_shards: usize, sessions_per_shard: usize) -> ServeConfig {
    ServeConfig {
        n_shards,
        sessions_per_shard,
        bucket: TokenBucketConfig {
            capacity: u64::MAX,
            refill_per_sec: 0,
        },
        ..ServeConfig::for_pipeline(ht.config())
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: feature count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: feature {i}: {x} vs {y}");
    }
}

/// The headline property: random session counts, random capture lengths,
/// random ragged chunkings, random interleavings — every session's served
/// outcome is byte-identical to its solo batch result, and in-flight
/// counts never exceed capacity while the schedule runs.
#[test]
fn prop_interleaved_sessions_match_solo_batch() {
    let ht = pipeline();
    property("serve_interleaving").cases(6).run(|g| {
        let n_sessions = g.usize_in(2..7);
        let n_shards = g.usize_in(1..4);
        let sessions_per_shard = n_sessions.div_ceil(n_shards);
        let captures = noise_captures(
            n_sessions,
            4,
            g.usize_in(3000..4500),
            g.usize_in(0..500),
            g.u64_in(0..u64::MAX),
        );
        let server = WakeServer::new(ht, serve_config(ht, n_shards, sessions_per_shard));
        let capacity = n_shards * sessions_per_shard;

        for id in 0..n_sessions as u64 {
            server.open(id, id).expect("open under capacity");
        }
        // Random interleaving with ragged chunks until every session is
        // fully fed.
        let mut cursors: Vec<(u64, usize)> = (0..n_sessions as u64).map(|id| (id, 0)).collect();
        let mut live = n_sessions;
        while !cursors.is_empty() {
            assert!(
                server.stats().live <= capacity && server.stats().live == live,
                "in-flight sessions must track opens minus closes, bounded by capacity"
            );
            let pick = g.usize_in(0..cursors.len());
            let (id, pos) = cursors[pick];
            let capture = &captures[id as usize];
            let len = capture[0].len();
            let take = g.usize_in(1..1200).min(len - pos);
            let chunk: Vec<&[f64]> = capture.iter().map(|c| &c[pos..pos + take]).collect();
            server.push(id, &chunk, 0).expect("push");
            cursors[pick].1 = pos + take;
            if pos + take == len {
                let served = server.finalize(id, 0).expect("finalize");
                live -= 1;
                cursors.swap_remove(pick);

                let (solo_decision, solo_features) = ht.decide_batch(capture).expect("solo batch");
                let ctx = format!("session {id}");
                let decision = served.decision.expect("advisory decision");
                assert_eq!(decision, solo_decision, "{ctx}: decision");
                assert_eq!(
                    decision.live_probability.to_bits(),
                    solo_decision.live_probability.to_bits(),
                    "{ctx}: live probability bits"
                );
                assert_eq!(
                    decision.facing_score.to_bits(),
                    solo_decision.facing_score.to_bits(),
                    "{ctx}: facing score bits"
                );
                assert_bits_eq(&served.features, &solo_features, &ctx);
                let expected = if solo_decision.accepted() {
                    WakeVerdict::Allow
                } else {
                    WakeVerdict::SoftMute
                };
                assert_eq!(served.verdict, expected, "{ctx}: verdict");
                assert_eq!(served.samples_per_channel, len, "{ctx}: samples");
            }
        }
        assert_eq!(server.stats().live, 0, "every session closed");
    });
}

/// The full seeded load generator replays byte-identically at
/// `HT_THREADS=1` and `4`: same decisions, same rejections, same
/// fingerprint. This is the `(seed, scenario set)` replay contract.
#[test]
fn load_drive_is_byte_identical_across_thread_counts() {
    let ht = pipeline();
    let captures = noise_captures(4, 4, 4000, 300, 0x1A7E);
    let config = LoadConfig {
        seed: 0x5EED,
        n_sessions: 30,
        ..LoadConfig::default()
    };
    let drive = || {
        let server = WakeServer::new(ht, serve_config(ht, 3, 4));
        run_load(&server, &captures, &config).expect("drive")
    };
    let one = ht_par::Pool::new(1).install(drive);
    let four = ht_par::Pool::new(4).install(drive);
    assert_eq!(one, four, "thread count must not change any bit of the run");
    assert_eq!(one.decided, 30);
    assert_eq!(one.decided, one.accepted + one.soft_muted);
}

/// Admission invariants under random operation sequences: live sessions
/// never exceed `n_shards * sessions_per_shard`, per-shard live counts
/// never exceed the shard's slot capacity, and a rejected open changes
/// nothing observable.
#[test]
fn prop_admission_never_overcommits_and_rejections_are_stateless() {
    let ht = pipeline();
    property("serve_admission").cases(12).run(|g| {
        let n_shards = g.usize_in(1..4);
        let sessions_per_shard = g.usize_in(1..4);
        let bucket = TokenBucketConfig {
            capacity: g.u64_in(0..6),
            refill_per_sec: *g.choose(&[0u64, 2, 1_000_000]),
        };
        let server = WakeServer::new(
            ht,
            ServeConfig {
                n_shards,
                sessions_per_shard,
                bucket,
                session_idle_timeout_ns: 1_000,
                ..ServeConfig::for_pipeline(ht.config())
            },
        );
        let capacity = n_shards * sessions_per_shard;
        let chunk_data = vec![vec![0.01f64; 480]; 4];
        let mut now = 0u64;
        let mut open_ids: Vec<u64> = Vec::new();
        for _ in 0..g.usize_in(1..60) {
            now += g.u64_in(0..2_000_000_000);
            match g.usize_in(0..10) {
                // Mostly opens: pressure on admission.
                0..=5 => {
                    let id = g.u64_in(0..12);
                    let before = server.stats();
                    match server.open(id, now) {
                        Ok(()) => open_ids.push(id),
                        Err(ServeError::DuplicateSession(_)) => {
                            assert!(open_ids.contains(&id), "duplicate implies open");
                            assert_eq!(server.stats(), before, "duplicate changed state");
                        }
                        Err(ServeError::Rejected(reason)) => {
                            assert_eq!(
                                server.stats(),
                                before,
                                "rejected open must leave no residual state"
                            );
                            if let RejectReason::ShardFull { shard, capacity } = reason {
                                assert_eq!(
                                    before.shards[shard].live, capacity,
                                    "ShardFull only when the shard is full"
                                );
                            }
                        }
                        Err(e) => panic!("unexpected open error {e}"),
                    }
                }
                6..=7 => {
                    if let Some(&id) = open_ids.last() {
                        let chunk: Vec<&[f64]> = chunk_data.iter().map(Vec::as_slice).collect();
                        server.push(id, &chunk, now).expect("valid push");
                    }
                }
                8 => {
                    if let Some(id) = open_ids.pop() {
                        match server.finalize(id, now) {
                            Ok(_) => {}
                            Err(ServeError::Pipeline(_)) => {
                                // Undecidable (too-short) captures are
                                // retryable: the session stays open,
                                // marked active at `now`.
                                open_ids.push(id);
                            }
                            Err(e) => panic!("unexpected finalize error {e}"),
                        }
                    }
                }
                _ => {
                    server.evict_idle(now);
                    // Resync the model: probe each id with an empty chunk
                    // (a no-op push) — unknown means it was evicted.
                    open_ids.retain(|&id| {
                        let chunk: Vec<&[f64]> = chunk_data.iter().map(|c| &c[0..0]).collect();
                        server.push(id, &chunk, now).is_ok()
                    });
                }
            }
            let stats = server.stats();
            assert!(
                stats.live <= capacity,
                "live {} exceeds capacity {capacity}",
                stats.live
            );
            for (i, shard) in stats.shards.iter().enumerate() {
                assert!(
                    shard.live <= sessions_per_shard,
                    "shard {i} live {} exceeds {sessions_per_shard}",
                    shard.live
                );
                assert!(
                    shard.slots_built <= sessions_per_shard,
                    "shard {i} built {} slots, cap {sessions_per_shard}",
                    shard.slots_built
                );
            }
            assert_eq!(stats.live, open_ids.len(), "live tracks the model");
        }
    });
}

/// Failing sessions interleaved among healthy ones: geometry violations
/// evict eagerly, the arena's marks stay flat (no slot pinned behind a
/// dead session, no slot rebuilt), and — the part that matters — the
/// healthy sessions' outcomes remain byte-identical to solo batch.
#[test]
fn prop_failing_sessions_do_not_perturb_healthy_neighbours() {
    let ht = pipeline();
    property("serve_failure_isolation").cases(4).run(|g| {
        let captures = noise_captures(3, 4, 3200, 200, g.u64_in(0..u64::MAX));
        // One shard so healthy and failing sessions share an arena.
        let server = WakeServer::new(ht, serve_config(ht, 1, 2));
        let bad_chunk = [vec![0.0f64; 64], vec![0.0f64; 64]];

        for (round, capture) in captures.iter().enumerate() {
            let healthy = 2 * round as u64;
            let failing = healthy + 1;
            server.open(healthy, 0).expect("open healthy");
            server.open(failing, 0).expect("open failing");

            let len = capture[0].len();
            let mut pos = 0;
            let mut poisoned = false;
            while pos < len {
                let take = g.usize_in(1..900).min(len - pos);
                let chunk: Vec<&[f64]> = capture.iter().map(|c| &c[pos..pos + take]).collect();
                server.push(healthy, &chunk, 0).expect("healthy push");
                pos += take;
                // Interleave the failing session's doomed push mid-stream.
                if !poisoned && g.bool() {
                    let bad: Vec<&[f64]> = bad_chunk.iter().map(Vec::as_slice).collect();
                    assert!(matches!(
                        server.push(failing, &bad, 0),
                        Err(ServeError::Evicted { id, .. }) if id == failing
                    ));
                    poisoned = true;
                }
            }
            if !poisoned {
                let bad: Vec<&[f64]> = bad_chunk.iter().map(Vec::as_slice).collect();
                assert!(matches!(
                    server.push(failing, &bad, 0),
                    Err(ServeError::Evicted { .. })
                ));
            }

            let served = server.finalize(healthy, 0).expect("finalize healthy");
            let (solo_decision, solo_features) = ht.decide_batch(capture).expect("solo");
            assert_eq!(
                served.decision.expect("decision"),
                solo_decision,
                "round {round}: healthy decision"
            );
            assert_bits_eq(
                &served.features,
                &solo_features,
                &format!("round {round}: healthy features"),
            );

            let shard = server.stats().shards[0];
            assert_eq!(shard.live, 0, "round {round}: nothing pinned");
            assert!(
                shard.slots_built <= 2,
                "round {round}: arena grew past the concurrent pair"
            );
            assert_eq!(shard.live_hwm, 2, "round {round}: hwm flat at the pair");
        }
    });
}
