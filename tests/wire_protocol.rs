//! Conformance suite for the wire protocol (`PROTOCOL.md`), driven
//! through the public facade: every request/response/edit shape round
//! trips, malformed/oversize/truncated frames are rejected with the
//! documented connection-fatal kinds (and never a panic), and a session
//! driven over loopback TCP retires **bit-identical** to one driven
//! through an in-process [`SessionHandle`](gsino::SessionHandle).

use gsino::core::pipeline::{run_flow_with_artifacts, Approach};
use gsino::core::service::net::{
    read_frame, write_frame, FrameError, NetClient, NetServer, RequestEnvelope, ResponseEnvelope,
    MAX_FRAME, PROTOCOL_VERSION,
};
use gsino::grid::{Circuit, CircuitEdit, Net, Point, Rect};
use gsino::sino::nss::NssModel;
use gsino::{
    EcoEdit, EcoSession, ErrorKind, GsinoConfig, RoutingService, ServiceConfig, ServiceRequest,
    ServiceResponse, SessionStats,
};
use proptest::prelude::*;
use std::io::Write;
use std::sync::Arc;

fn small_circuit(name: &str, n: u32) -> Circuit {
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
    let nets: Vec<Net> = (0..n)
        .map(|i| {
            let x = 16.0 + (i as f64 * 37.0) % 600.0;
            let y = 16.0 + (i as f64 * 53.0) % 600.0;
            Net::two_pin(i, Point::new(x, y), Point::new(620.0 - x, 620.0 - y))
        })
        .collect();
    Circuit::new(name, die, nets).unwrap()
}

fn fast_config() -> GsinoConfig {
    GsinoConfig::builder()
        .nss_model(NssModel::from_coefficients(
            [0.9, -0.5, 0.4, -0.2, 0.05, -0.3],
            0.5,
        ))
        .threads(1)
        .build()
        .unwrap()
}

fn assert_matches_scratch(session: &EcoSession) {
    let (outcome, internals) =
        run_flow_with_artifacts(session.circuit(), session.config(), Approach::Gsino).unwrap();
    assert_eq!(session.routes(), &outcome.routes, "routes diverged");
    assert_eq!(session.budgets(), &internals.budgets, "budgets diverged");
    assert_eq!(session.sino(), &internals.sino, "sino diverged");
}

/// Serialize → parse → serialize: the JSON must be byte-stable, which
/// both proves the parse saw every field and pins the canonical shape.
fn round_trip_stable<T: serde::Serialize + serde::Deserialize>(value: &T) -> String {
    let json = serde_json::to_string(value).unwrap();
    let parsed: T = serde_json::from_str(&json).unwrap();
    let again = serde_json::to_string(&parsed).unwrap();
    assert_eq!(json, again, "round trip not byte-stable");
    json
}

fn every_edit() -> Vec<EcoEdit> {
    vec![
        EcoEdit::Circuit(CircuitEdit::AddNet {
            net: Net::two_pin(100, Point::new(40.0, 40.0), Point::new(600.0, 600.0)),
        }),
        EcoEdit::Circuit(CircuitEdit::RemoveNet { net: 5 }),
        EcoEdit::Circuit(CircuitEdit::RePin {
            net: 2,
            pins: vec![Point::new(10.0, 10.0), Point::new(200.0, 300.0)],
        }),
        EcoEdit::TightenVth {
            net: 1,
            sink: 0,
            vth: 0.12,
        },
        EcoEdit::RelaxVth { net: 1, sink: 0 },
        EcoEdit::Retile { tile_um: 48.0 },
        EcoEdit::Reweight {
            weights: gsino::core::router::Weights {
                alpha: 1.0,
                beta: 0.5,
                gamma: 0.25,
            },
        },
    ]
}

#[test]
fn every_request_variant_round_trips() {
    let requests = vec![
        ServiceRequest::Open {
            circuit: Box::new(small_circuit("rt", 4)),
            config: Box::new(fast_config()),
        },
        ServiceRequest::Edit(every_edit()),
        ServiceRequest::Query,
        ServiceRequest::Stats,
        ServiceRequest::Verify,
        ServiceRequest::Close,
    ];
    for (i, req) in requests.into_iter().enumerate() {
        let envelope = RequestEnvelope {
            v: PROTOCOL_VERSION,
            id: i as u64 + 1,
            session: "rt".to_string(),
            deadline_ms: if i % 2 == 0 { Some(250) } else { None },
            req,
        };
        let json = round_trip_stable(&envelope);
        assert!(json.contains("\"type\""), "payload must be type-tagged");
        // Version 2 carries no solver configuration.
        assert!(!json.contains("\"solver\""), "{json}");
    }
}

#[test]
fn every_response_variant_round_trips() {
    let stats = SessionStats::default();
    let responses = vec![
        ServiceResponse::Opened {
            session: "rt".to_string(),
        },
        ServiceResponse::Committed(gsino::EditReceipt {
            edits: 2,
            batch_requests: 3,
            batch_edits: 5,
            class: gsino::core::session::EditClass::BudgetOnly,
            queue_ms: 1.5,
            commit_ms: 7.25,
        }),
        ServiceResponse::Snapshot(gsino::SessionSnapshot {
            session: "rt".to_string(),
            nets: 12,
            clean: true,
            violating_nets: 0,
            stats,
            last_divergence: Some("detail".to_string()),
        }),
        ServiceResponse::Stats(gsino::core::service::StatsReport {
            session: "rt".to_string(),
            queue_depth: 4,
            stats,
            queue_ms: gsino::LatencySummary {
                count: 9,
                mean_ms: 1.0,
                p50_ms: 0.75,
                p95_ms: 3.5,
                max_ms: 4.0,
            },
            commit_ms: gsino::LatencySummary::default(),
            canceled_in_queue: 2,
            pool: gsino::core::service::PoolStats {
                pool_threads: 2,
                steals: 5,
                parks: 11,
                runnable_sessions: 1,
                pinning_violations: 0,
                uptime_ms: 1234.5,
                workers: vec![
                    gsino::core::service::WorkerGauge {
                        tasks: 7,
                        busy_ms: 42.0,
                    },
                    gsino::core::service::WorkerGauge::default(),
                ],
            },
        }),
        ServiceResponse::Verified { clean: false },
        ServiceResponse::Closed {
            session: "rt".to_string(),
            stats,
        },
    ];
    for (i, resp) in responses.into_iter().enumerate() {
        round_trip_stable(&ResponseEnvelope {
            v: PROTOCOL_VERSION,
            id: i as u64 + 1,
            outcome: Ok(resp),
        });
    }
    // The error arm, and the exactly-one-of-ok/err rule.
    let err_json = round_trip_stable(&ResponseEnvelope {
        v: PROTOCOL_VERSION,
        id: 7,
        outcome: Err(gsino::core::service::net::WireError {
            kind: "overloaded".to_string(),
            retryable: true,
            message: "mailbox full".to_string(),
        }),
    });
    assert!(err_json.contains("\"err\"") && !err_json.contains("\"ok\""));
    assert!(serde_json::from_str::<ResponseEnvelope>(r#"{"v":1,"id":1}"#).is_err());
}

#[test]
fn every_edit_variant_round_trips() {
    for edit in every_edit() {
        let json = round_trip_stable(&ServiceRequest::Edit(vec![edit]));
        assert!(json.contains("\"edits\""));
    }
}

#[test]
fn open_request_revalidates_the_circuit() {
    // A wire circuit with a pin outside its die must be rejected at
    // decode — derived deserialization alone would bypass Circuit::new.
    let good = serde_json::to_string(&ServiceRequest::Open {
        circuit: Box::new(small_circuit("bad", 3)),
        config: Box::new(fast_config()),
    })
    .unwrap();
    // Net 0 pins at (16,16)/(604,604): move one far outside the 640x640 die.
    let bad = good.replace("604", "9999");
    assert!(bad.contains("9999"), "test setup: pin must be off-die");
    assert!(serde_json::from_str::<ServiceRequest>(&bad).is_err());
    assert!(serde_json::from_str::<ServiceRequest>(&good).is_ok());
}

#[test]
fn frame_codec_rejects_malformed_oversize_truncated() {
    // Oversize prefix: rejected before any body is read.
    let mut huge: &[u8] = &[0x7f, 0xff, 0xff, 0xff];
    assert!(matches!(
        read_frame(&mut huge, MAX_FRAME),
        Err(FrameError::Oversize { .. })
    ));
    // Truncation inside prefix and body.
    let mut partial: &[u8] = &[0, 0];
    assert!(matches!(
        read_frame(&mut partial, MAX_FRAME),
        Err(FrameError::Truncated { .. })
    ));
    let mut encoded = Vec::new();
    write_frame(&mut encoded, b"{\"v\":1}", MAX_FRAME).unwrap();
    encoded.truncate(encoded.len() - 3);
    let mut cursor = &encoded[..];
    assert!(matches!(
        read_frame(&mut cursor, MAX_FRAME),
        Err(FrameError::Truncated { .. })
    ));
    // Zero-length frames are malformed in both directions.
    let mut zero: &[u8] = &[0, 0, 0, 0];
    assert!(matches!(
        read_frame(&mut zero, MAX_FRAME),
        Err(FrameError::Malformed(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte prefixes never panic the frame reader: every input
    /// is a clean EOF, a frame, or a typed `FrameError`.
    #[test]
    fn random_bytes_never_panic_the_codec(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        let mut cursor = &bytes[..];
        let _ = read_frame(&mut cursor, 1024);
    }

    /// Arbitrary frame bodies never panic the envelope parser.
    #[test]
    fn random_bodies_never_panic_the_parser(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = serde_json::from_str::<RequestEnvelope>(text);
            let _ = serde_json::from_str::<ResponseEnvelope>(text);
        }
    }
}

/// Reads the hello then returns the raw stream, for tests that need to
/// misbehave below the client library.
fn raw_connect(server: &NetServer) -> std::net::TcpStream {
    let mut stream = std::net::TcpStream::connect(server.local_addr().unwrap()).unwrap();
    let hello = read_frame(&mut stream, MAX_FRAME).unwrap().unwrap();
    let text = std::str::from_utf8(&hello).unwrap();
    assert!(text.contains("gsino-wire"));
    stream
}

/// Reads one response envelope off a raw stream.
fn read_response(stream: &mut std::net::TcpStream) -> Option<ResponseEnvelope> {
    let body = read_frame(stream, MAX_FRAME).unwrap()?;
    Some(serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap())
}

#[test]
fn server_answers_garbage_with_fatal_error_frames() {
    let service = Arc::new(RoutingService::new(ServiceConfig::default()));
    let server = NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).unwrap();

    // A well-framed but non-JSON body: uncorrelated (id 0) fatal error,
    // then the connection closes.
    let mut stream = raw_connect(&server);
    write_frame(&mut stream, &[0xff, 0xfe, 0x00], MAX_FRAME).unwrap();
    let envelope = read_response(&mut stream).expect("error frame before close");
    assert_eq!(envelope.id, 0);
    let err = envelope.outcome.unwrap_err();
    assert_eq!(err.kind, "frame_malformed");
    assert!(!err.retryable);
    assert!(
        read_response(&mut stream).is_none(),
        "connection must close"
    );

    // An oversize length prefix: rejected before the body, same shape.
    let mut stream = raw_connect(&server);
    stream.write_all(&[0x7f, 0xff, 0xff, 0xff]).unwrap();
    stream.flush().unwrap();
    let envelope = read_response(&mut stream).expect("error frame before close");
    assert_eq!(envelope.id, 0);
    assert_eq!(envelope.outcome.unwrap_err().kind, "frame_oversize");

    // A version the server does not speak: correlated, kind `protocol`.
    let mut stream = raw_connect(&server);
    let body = r#"{"v":99,"id":41,"session":"x","deadline_ms":null,"req":{"type":"query"}}"#;
    write_frame(&mut stream, body.as_bytes(), MAX_FRAME).unwrap();
    let envelope = read_response(&mut stream).expect("error frame before close");
    assert_eq!(envelope.id, 41);
    assert_eq!(envelope.outcome.unwrap_err().kind, "protocol");
    assert!(
        read_response(&mut stream).is_none(),
        "connection must close"
    );

    server.shutdown();
}

#[test]
fn loopback_session_is_bit_identical_to_in_process() {
    let batches: Vec<Vec<EcoEdit>> = vec![
        vec![EcoEdit::TightenVth {
            net: 1,
            sink: 0,
            vth: 0.12,
        }],
        vec![EcoEdit::Circuit(CircuitEdit::AddNet {
            net: Net::two_pin(100, Point::new(40.0, 40.0), Point::new(600.0, 600.0)),
        })],
        vec![
            EcoEdit::TightenVth {
                net: 3,
                sink: 0,
                vth: 0.11,
            },
            EcoEdit::RelaxVth { net: 1, sink: 0 },
        ],
    ];

    // Over the wire.
    let service = Arc::new(RoutingService::new(ServiceConfig::default()));
    let server = NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let mut client = NetClient::connect_tcp(server.local_addr().unwrap()).unwrap();
    client
        .open("twin", small_circuit("twin", 12), fast_config())
        .unwrap();
    for batch in &batches {
        let receipt = client.edit("twin", batch.clone()).unwrap();
        assert_eq!(receipt.edits, batch.len());
    }
    let snapshot = client.query("twin").unwrap();
    assert_eq!(snapshot.nets, 13);
    assert!(client.verify("twin").unwrap());
    // Retire server-side so the session object itself is comparable.
    let over_wire = service.close("twin").unwrap();
    server.shutdown();

    // The same history through an in-process handle.
    let local = RoutingService::new(ServiceConfig::default());
    let handle = local
        .open("twin", small_circuit("twin", 12), fast_config())
        .unwrap();
    for batch in &batches {
        handle.edit(batch.clone()).unwrap();
    }
    let in_process = local.close("twin").unwrap();

    assert_eq!(over_wire.routes(), in_process.routes(), "routes diverged");
    assert_eq!(
        over_wire.budgets(),
        in_process.budgets(),
        "budgets diverged"
    );
    assert_eq!(over_wire.sino(), in_process.sino(), "sino diverged");
    assert_eq!(over_wire.stats().edits_applied, 4);
    assert_matches_scratch(&over_wire);
}

#[test]
fn sequential_round_trips_do_not_wait_for_delayed_acks() {
    // A frame split over two writes with Nagle's algorithm on waits out
    // the peer's delayed-ACK timer (>= 40 ms) on every round trip, so 50
    // of them would take at least 2 s.
    let service = Arc::new(RoutingService::new(ServiceConfig::default()));
    let server = NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let mut client = NetClient::connect_tcp(server.local_addr().unwrap()).unwrap();
    client
        .open("rtt", small_circuit("rtt", 8), fast_config())
        .unwrap();
    client.query("rtt").unwrap(); // the first query waits for the build
    let start = std::time::Instant::now();
    for _ in 0..50 {
        assert_eq!(client.query("rtt").unwrap().nets, 8);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "50 query round trips took {elapsed:?}"
    );
    client.close("rtt").unwrap();
    server.shutdown();
}

#[test]
fn pipelined_requests_resolve_out_of_order_waits() {
    let service = Arc::new(RoutingService::new(ServiceConfig::default()));
    let server = NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let mut client = NetClient::connect_tcp(server.local_addr().unwrap()).unwrap();
    client
        .open("pipe", small_circuit("pipe", 10), fast_config())
        .unwrap();

    // Fire a burst without waiting, then collect in reverse order: the
    // correlation ids must route every outcome to the right waiter even
    // though the server may coalesce the edits into fewer commits.
    let ids: Vec<u64> = (0..4u32)
        .map(|i| {
            client
                .send(
                    "pipe",
                    ServiceRequest::Edit(vec![EcoEdit::TightenVth {
                        net: i,
                        sink: 0,
                        vth: 0.10 + 0.005 * f64::from(i),
                    }]),
                    None,
                )
                .unwrap()
        })
        .collect();
    let mut coalesced = 0usize;
    for id in ids.iter().rev() {
        match client.wait(*id).unwrap() {
            ServiceResponse::Committed(receipt) => {
                assert_eq!(receipt.edits, 1);
                coalesced = coalesced.max(receipt.batch_requests);
            }
            other => panic!("expected committed, got {other:?}"),
        }
    }

    // Stats over the wire reflect the burst.
    let report = client.stats("pipe").unwrap();
    assert_eq!(report.stats.edits_applied, 4);
    assert_eq!(report.queue_depth, 0);
    assert_eq!(report.queue_ms.count, 4);
    assert!(report.stats.commits >= 1);
    assert!(coalesced >= 1);

    let stats = client.close("pipe").unwrap();
    assert_eq!(stats.edits_applied, 4);
    server.shutdown();
}

#[test]
fn deadlines_and_typed_errors_cross_the_wire() {
    let service = Arc::new(RoutingService::new(ServiceConfig::default()));
    let server = NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let mut client = NetClient::connect_tcp(server.local_addr().unwrap()).unwrap();
    client
        .open("err", small_circuit("err", 10), fast_config())
        .unwrap();

    // A zero deadline expires while the opening flow still builds: the
    // wire answer must classify as `canceled` and retryable, exactly as
    // the in-process error does.
    let expired = client
        .call_within(
            "err",
            ServiceRequest::Edit(vec![EcoEdit::TightenVth {
                net: 2,
                sink: 0,
                vth: 0.11,
            }]),
            0,
        )
        .unwrap_err();
    assert_eq!(expired.kind(), ErrorKind::Canceled);
    assert!(expired.is_retryable());

    // A stale net id fails at apply time with its typed kind.
    let stale = client
        .edit(
            "err",
            vec![EcoEdit::TightenVth {
                net: 999,
                sink: 0,
                vth: 0.11,
            }],
        )
        .unwrap_err();
    assert_eq!(stale.kind(), ErrorKind::UnknownId);
    assert!(!stale.is_retryable());

    // An unknown session answers `session_closed`.
    let ghost = client.query("ghost").unwrap_err();
    assert_eq!(ghost.kind(), ErrorKind::SessionClosed);

    let session = service.close("err").unwrap();
    assert_eq!(session.stats().commits, 0);
    assert_matches_scratch(&session);
    server.shutdown();
}

#[test]
fn shutdown_under_load_drains_clients_cleanly() {
    let service = Arc::new(RoutingService::new(ServiceConfig::default()));
    let server = NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.local_addr().unwrap();
    for name in ["a", "b"] {
        service
            .open(name, small_circuit(name, 10), fast_config())
            .unwrap();
    }

    let clients: Vec<_> = (0..4u32)
        .map(|i| {
            std::thread::spawn(move || {
                let session = if i % 2 == 0 { "a" } else { "b" };
                let mut client = match NetClient::connect_tcp(addr) {
                    Ok(c) => c,
                    Err(_) => return, // raced the shutdown at connect
                };
                for round in 0..8u32 {
                    let outcome = client.edit(
                        session,
                        vec![EcoEdit::TightenVth {
                            net: i,
                            sink: 0,
                            vth: 0.10 + 0.001 * f64::from(round),
                        }],
                    );
                    // Every outcome is a receipt or a typed error — a
                    // dropped connection surfaces as a connection-fatal
                    // remote kind, never a hang or a panic.
                    if outcome.is_err() {
                        return;
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(30));
    server.shutdown();
    for client in clients {
        client.join().expect("client panicked");
    }

    // The sessions themselves outlive the network front and are intact.
    for name in ["a", "b"] {
        let session = service.close(name).unwrap();
        assert!(!session.in_transaction(), "session `{name}` torn");
        assert_matches_scratch(&session);
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_speaks_the_same_protocol() {
    let dir = std::env::temp_dir().join(format!("gsino-wire-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gsino.sock");
    let service = Arc::new(RoutingService::new(ServiceConfig::default()));
    let server = NetServer::bind_unix(&path, Arc::clone(&service)).unwrap();

    let mut client = NetClient::connect_unix(&path).unwrap();
    assert_eq!(client.hello().proto, "gsino-wire");
    client
        .open("uds", small_circuit("uds", 8), fast_config())
        .unwrap();
    let receipt = client
        .edit(
            "uds",
            vec![EcoEdit::TightenVth {
                net: 1,
                sink: 0,
                vth: 0.12,
            }],
        )
        .unwrap();
    assert_eq!(receipt.edits, 1);
    assert!(client.verify("uds").unwrap());
    let stats = client.close("uds").unwrap();
    assert_eq!(stats.commits, 1);

    server.shutdown();
    assert!(!path.exists(), "socket file must be removed on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
