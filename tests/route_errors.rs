//! One error table for every route to a wake decision. The batch calls,
//! the config-only training extractors, a solo stream, and the server's
//! single and batched finalize all run the same streaming engine, so each
//! degenerate capture must be refused by every route with the same typed
//! error — and no route may answer `Allow` on audio at the edges of the
//! floating-point range.

use headtalk::stream::WakeVerdict;
use headtalk::{HeadTalk, HeadTalkError};
use ht_dsp::rng::{gaussian, SeedableRng, StdRng};
use ht_serve::{toy_pipeline, ServeConfig, ServeError, TokenBucketConfig, WakeServer};

/// The typed error class: the `HeadTalkError` variant, and the
/// `StreamError` variant inside a stream error.
fn kind(e: &HeadTalkError) -> String {
    match e {
        HeadTalkError::Stream(s) => {
            let debug = format!("{s:?}");
            let name = debug.split(['(', ' ', '{']).next().unwrap_or_default();
            format!("Stream({name})")
        }
        HeadTalkError::InvalidInput(_) => "InvalidInput".into(),
        other => format!("{other:?}"),
    }
}

/// A served session's error as the pipeline error behind it.
fn pipeline_error(e: ServeError) -> HeadTalkError {
    match e {
        ServeError::Pipeline(e) => e,
        ServeError::Evicted { cause, .. } => HeadTalkError::Stream(cause),
        other => panic!("not a pipeline error: {other:?}"),
    }
}

/// `capture` cut into consecutive `hop`-sample chunks (ragged channels make
/// the last chunk ragged).
fn chunks(capture: &[Vec<f64>], hop: usize) -> Vec<Vec<&[f64]>> {
    let len = capture.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .step_by(hop)
        .map(|pos| {
            capture
                .iter()
                .map(|c| &c[pos.min(c.len())..(pos + hop).min(c.len())])
                .collect()
        })
        .collect()
}

fn stream_route(ht: &HeadTalk, capture: &[Vec<f64>]) -> Result<bool, HeadTalkError> {
    let mut stream = ht.streamer(capture.len())?;
    let hop = stream.hop();
    for chunk in chunks(capture, hop) {
        stream.push(&chunk)?;
    }
    Ok(stream.finalize()?.verdict == WakeVerdict::Allow)
}

/// Opens a session on a server sized to the capture's channel count and
/// streams the capture into it.
fn served<'ht>(ht: &'ht HeadTalk, capture: &[Vec<f64>]) -> Result<WakeServer<'ht>, ServeError> {
    let server = WakeServer::new(
        ht,
        ServeConfig {
            n_shards: 1,
            sessions_per_shard: 1,
            bucket: TokenBucketConfig {
                capacity: 1,
                refill_per_sec: 0,
            },
            n_channels: capture.len(),
            ..ServeConfig::for_pipeline(ht.config())
        },
    );
    server.open(1, 0)?;
    for chunk in chunks(capture, server.config().stream.hop) {
        server.push(1, &chunk, 1)?;
    }
    Ok(server)
}

fn server_finalize(ht: &HeadTalk, capture: &[Vec<f64>]) -> Result<bool, HeadTalkError> {
    let server = served(ht, capture).map_err(pipeline_error)?;
    let outcome = server.finalize(1, 2).map_err(pipeline_error)?;
    Ok(outcome.verdict == WakeVerdict::Allow)
}

fn server_finalize_batch(ht: &HeadTalk, capture: &[Vec<f64>]) -> Result<bool, HeadTalkError> {
    let server = served(ht, capture).map_err(pipeline_error)?;
    let (_, result) = server.finalize_batch(&[1], 2).remove(0);
    let outcome = result.map_err(pipeline_error)?;
    Ok(outcome.verdict == WakeVerdict::Allow)
}

fn noise(seed: u64, lens: &[usize]) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    lens.iter()
        .map(|&n| (0..n).map(|_| 0.1 * gaussian(&mut rng)).collect())
        .collect()
}

/// One route to a decision: `Ok(true)` when it answered `Allow`. The
/// config-only extractors decide nothing and never answer `Allow`.
type Route = Box<dyn Fn(&[Vec<f64>]) -> Result<bool, HeadTalkError>>;

/// Named routes, in table order.
type Routes = Vec<(&'static str, Route)>;

/// The routes that run `ht`'s models, and the config-only extractors.
fn routes(ht: &HeadTalk) -> (Routes, Routes) {
    let config = *ht.config();
    let model_routes: Routes = {
        let ht = ht.clone();
        let (a, b, c, d, e) = (ht.clone(), ht.clone(), ht.clone(), ht.clone(), ht);
        vec![
            (
                "process_wake",
                Box::new(move |x| Ok(a.process_wake(x)?.accepted())),
            ),
            (
                "decide_batch",
                Box::new(move |x| Ok(b.decide_batch(x)?.0.accepted())),
            ),
            (
                "WakeStream::finalize",
                Box::new(move |x| stream_route(&c, x)),
            ),
            (
                "WakeServer::finalize",
                Box::new(move |x| server_finalize(&d, x)),
            ),
            (
                "WakeServer::finalize_batch",
                Box::new(move |x| server_finalize_batch(&e, x)),
            ),
        ]
    };
    let config_routes: Routes = vec![
        (
            "orientation_features",
            Box::new(move |x| HeadTalk::orientation_features(&config, x).map(|_| false)),
        ),
        (
            "liveness_input",
            Box::new(move |x| HeadTalk::liveness_input(&config, x).map(|_| false)),
        ),
    ];
    (model_routes, config_routes)
}

#[test]
fn every_route_refuses_each_degenerate_capture_with_one_typed_error() {
    let ht = toy_pipeline();
    let config = *ht.config();
    let (model_routes, config_routes) = routes(&ht);

    let frame_len = config.analysis_frame_geometry().0;
    // (case, capture, expected error kind, whether the config-only routes
    // see it: they have no model, so no trained feature width to miss).
    let table: Vec<(&str, Vec<Vec<f64>>, &str, bool)> = vec![
        ("empty", vec![Vec::new(); 4], "Stream(NoFrames)", true),
        (
            "ragged",
            noise(1, &[4800, 4800, 4800, 4799]),
            "Stream(RaggedChunk)",
            true,
        ),
        (
            "one channel",
            noise(2, &[4800]),
            "Stream(BadGeometry)",
            true,
        ),
        (
            "feature width off the model",
            noise(3, &[4800; 3]),
            "InvalidInput",
            false,
        ),
        (
            "shorter than one frame",
            noise(4, &[frame_len - 1; 4]),
            "Stream(NoFrames)",
            true,
        ),
        ("all silent", vec![vec![0.0; 9600]; 4], "InvalidInput", true),
    ];

    for (case, capture, expected, config_sees_it) in &table {
        for (route, run) in &model_routes {
            let got = run(capture).expect_err(&format!("{route} accepted the {case} capture"));
            assert_eq!(
                kind(&got),
                *expected,
                "{route} on the {case} capture: {got}"
            );
        }
        for (route, run) in &config_routes {
            match (run(capture), config_sees_it) {
                (Err(got), true) => {
                    assert_eq!(
                        kind(&got),
                        *expected,
                        "{route} on the {case} capture: {got}"
                    )
                }
                (Ok(_), false) => {}
                (got, _) => panic!("{route} on the {case} capture: {got:?}"),
            }
        }
    }
}

#[test]
fn no_route_allows_a_capture_at_extreme_amplitude() {
    // One huge sample overflows the squared magnitudes it touches; a whole
    // capture scaled to the edge of the range over- or underflows every
    // variance and squared magnitude. Either way the evidence cannot be
    // trusted, so a route may refuse or soft-mute but never allow, and the
    // scaled captures keep the liveness guard's typed refusal.
    let ht = toy_pipeline();
    let (model_routes, config_routes) = routes(&ht);
    let base = noise(5, &[9600; 4]);
    let spiked = |v: f64| {
        let mut capture = base.clone();
        capture[1][4321] = v;
        capture
    };
    let scaled = |k: f64| -> Vec<Vec<f64>> {
        base.iter()
            .map(|c| c.iter().map(|v| v * k).collect())
            .collect()
    };
    // (case, capture, the error every route must return, if one is pinned).
    let table = [
        ("one 1e300 sample", spiked(1e300), None),
        ("one 1e200 sample", spiked(1e200), None),
        ("scaled by 1e-160", scaled(1e-160), Some("InvalidInput")),
        ("scaled by 1e160", scaled(1e160), Some("InvalidInput")),
    ];
    for (case, capture, expected) in &table {
        for (route, run) in model_routes.iter().chain(&config_routes) {
            match (run(capture), expected) {
                (Ok(true), _) => panic!("{route} allowed the {case} capture"),
                (Ok(false) | Err(_), None) => {}
                (Err(got), Some(expected)) => {
                    assert_eq!(
                        kind(&got),
                        *expected,
                        "{route} on the {case} capture: {got}"
                    )
                }
                (got, _) => panic!("{route} on the {case} capture: {got:?}"),
            }
        }
    }
}
