//! Property tests for the scrape server's request handling: over arbitrary
//! request heads up to 8 KiB — raw bytes, and request lines built from
//! methods, routes and `/trace?id=…` queries with junk spliced in — the
//! response is produced without a panic, its status is 200 or 404, and its
//! `Content-Length` equals the length of the body that follows.

use pgrid_obs::scrape::{response, ScrapeState};
use pgrid_obs::trace::TraceEvent;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const MAX_HEAD: usize = 8 * 1024;

/// A state serving one metrics line and one trace (ID 7), so both the 200
/// and the 404 arm of every route are reachable.
fn state() -> Arc<ScrapeState> {
    let state = ScrapeState::new();
    state.publish_metrics("pgrid_up 1\n".to_string());
    state.publish_trace_events(&[TraceEvent {
        trace_id: 7,
        kind: "query_issued",
        peer: 1,
        virtual_ms: 10,
        wall_micros: 20,
        detail: "key=5".to_string(),
    }]);
    state
}

fn junk(rng: &mut StdRng, max: usize) -> Vec<u8> {
    (0..rng.gen_range(0..=max)).map(|_| rng.gen()).collect()
}

/// A request head that is mostly well-formed: a method, a target (often
/// `/trace` with an `id` query), a version, a few header lines, and junk
/// spliced in at random, truncated to [`MAX_HEAD`].
fn request_head(rng: &mut StdRng) -> Vec<u8> {
    let method = ["GET", "POST", "get", "", "GET\t"][rng.gen_range(0..5usize)];
    let id = match rng.gen_range(0..5) {
        0 => "7".to_string(),
        1 => rng.gen::<u64>().to_string(),
        2 => "-1".to_string(),
        3 => "18446744073709551616".to_string(),
        _ => String::new(),
    };
    let target = match rng.gen_range(0..8) {
        0 => "/metrics".to_string(),
        1 => "/healthz".to_string(),
        2 => "/trace".to_string(),
        3 => format!("/trace?id={id}"),
        4 => format!("/trace?x=1&id={id}&id=3"),
        5 => format!("/trace?{id}"),
        6 => format!("/metrics?id={id}"),
        _ => "/nope".to_string(),
    };
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: pgrid\r\n").into_bytes();
    for _ in 0..rng.gen_range(0..4) {
        let at = rng.gen_range(0..=head.len());
        let splice = junk(rng, 64);
        head.splice(at..at, splice);
    }
    if rng.gen() {
        head.extend_from_slice(b"\r\n");
    }
    head.truncate(MAX_HEAD);
    head
}

/// Checks that the status is 200 or 404 and that `Content-Length` is the
/// length of the body behind the headers.
fn check(response: &[u8]) -> Result<(), TestCaseError> {
    let split = response.windows(4).position(|w| w == b"\r\n\r\n");
    prop_assert!(split.is_some(), "no end of headers");
    let split = split.unwrap();
    let head = std::str::from_utf8(&response[..split]);
    prop_assert!(head.is_ok(), "headers are not text");
    let mut lines = head.unwrap().split("\r\n");
    let status = lines.next().unwrap_or_default();
    prop_assert!(
        status == "HTTP/1.1 200 OK" || status == "HTTP/1.1 404 Not Found",
        "status line {status:?}"
    );
    let length = lines
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|n| n.parse::<usize>().ok());
    prop_assert_eq!(length, Some(response.len() - split - 4));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_heads_get_a_200_or_404_with_an_honest_length(
        seed in any::<u64>(),
        raw in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let head = if raw {
            junk(&mut rng, MAX_HEAD)
        } else {
            request_head(&mut rng)
        };
        check(&response(&head, &state()))?;
    }

    #[test]
    fn known_routes_answer_200_and_unknown_trace_ids_404(id in any::<u64>()) {
        let state = state();
        let status = |target: &str| {
            let answer = response(format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes(), &state);
            let end = answer.iter().position(|&b| b == b'\r').unwrap_or(answer.len());
            String::from_utf8_lossy(&answer[..end]).into_owned()
        };
        for target in ["/metrics", "/healthz", "/trace", "/trace?id=7"] {
            prop_assert_eq!(status(target), "HTTP/1.1 200 OK");
        }
        let expected = if id == 7 { "HTTP/1.1 200 OK" } else { "HTTP/1.1 404 Not Found" };
        prop_assert_eq!(status(&format!("/trace?id={id}")), expected);
    }
}
