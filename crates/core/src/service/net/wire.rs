//! JSON wire forms of the service vocabulary.
//!
//! The request/response payloads are type-tagged JSON objects (a `"type"`
//! discriminant plus flat fields) wrapped in versioned envelopes carrying
//! the correlation id; `PROTOCOL.md` §3–§5 is the normative schema and
//! every shape here has a round-trip test in `tests/wire_protocol.rs`.
//!
//! [`ServiceRequest`], [`ServiceResponse`] and [`EcoEdit`] carry data in
//! their enum variants, so their `Serialize`/`Deserialize` impls are
//! written by hand (the workspace derive shim only handles structs and
//! C-like enums); the structs they embed ([`EditReceipt`],
//! [`SessionSnapshot`], [`StatsReport`], [`Circuit`], …) all derive.

use crate::pipeline::GsinoConfig;
use crate::router::Weights;
use crate::service::{EditReceipt, ServiceRequest, ServiceResponse, SessionSnapshot, StatsReport};
use crate::session::{EcoEdit, SessionStats};
use crate::CoreError;
use gsino_grid::net::{Circuit, CircuitEdit, Net};
use serde::{DeError, Deserialize, Map, Serialize, Value};

/// Current protocol version, negotiated by the hello frame. A server
/// speaks exactly one version; clients reject a mismatch at connect.
pub const PROTOCOL_VERSION: u32 = 2;

/// The protocol name carried in the hello frame, so a client that dialed
/// the wrong port fails with a clear error instead of a JSON shape one.
pub const PROTOCOL_NAME: &str = "gsino-wire";

/// The server's first frame on every connection: what it speaks and the
/// largest frame body it accepts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Always [`PROTOCOL_NAME`].
    pub proto: String,
    /// The single version this server speaks ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// Largest frame body (bytes) the server will read; clients must not
    /// send larger and may rely on responses respecting it too.
    pub max_frame: u64,
}

/// One client→server message: a versioned, correlation-id-tagged request
/// against one named session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version; must equal the hello's `version`.
    pub v: u32,
    /// Client-chosen correlation id, echoed verbatim on the response.
    /// Uniqueness among this connection's in-flight requests is the
    /// client's responsibility.
    pub id: u64,
    /// The session the request targets.
    pub session: String,
    /// Optional round-trip deadline in milliseconds, measured by the
    /// server from the moment it decodes the envelope. `null` = none.
    pub deadline_ms: Option<u64>,
    /// The request payload.
    pub req: ServiceRequest,
}

/// One server→client message: the outcome of the request whose `id` it
/// echoes. Exactly one of `ok`/`err` is present on the wire.
#[derive(Debug, Clone)]
pub struct ResponseEnvelope {
    /// Protocol version (the server's).
    pub v: u32,
    /// The request's correlation id, echoed verbatim. Id `0` is reserved
    /// for connection-fatal errors that could not be correlated (the
    /// envelope itself failed to parse); clients must start ids at 1.
    pub id: u64,
    /// The outcome.
    pub outcome: Result<ServiceResponse, WireError>,
}

/// The wire form of a [`CoreError`]: the stable kind string, the
/// retryability flag, and the display message. Lossy by design — payload
/// fields travel only inside `message` — so the vocabulary can grow
/// without breaking old clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// [`ErrorKind::as_str`](crate::ErrorKind::as_str) of the failing
    /// error, or a connection-fatal frame kind (`frame_*`, `io`,
    /// `protocol`).
    pub kind: String,
    /// [`CoreError::is_retryable`] of the failing error.
    pub retryable: bool,
    /// Human-readable detail (the error's `Display` output).
    pub message: String,
}

impl From<&CoreError> for WireError {
    fn from(e: &CoreError) -> Self {
        // A forwarded remote error keeps its original kind string even
        // when this build cannot parse it (kind() would flatten unknown
        // strings to `remote`).
        let kind = match e {
            CoreError::Remote { kind, .. } => kind.clone(),
            other => other.kind().as_str().to_string(),
        };
        WireError {
            kind,
            retryable: e.is_retryable(),
            message: e.to_string(),
        }
    }
}

impl From<WireError> for CoreError {
    fn from(w: WireError) -> Self {
        CoreError::Remote {
            kind: w.kind,
            retryable: w.retryable,
            message: w.message,
        }
    }
}

impl Serialize for ResponseEnvelope {
    fn serialize_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("v", self.v.serialize_value());
        m.insert("id", self.id.serialize_value());
        match &self.outcome {
            Ok(resp) => m.insert("ok", resp.serialize_value()),
            Err(err) => m.insert("err", err.serialize_value()),
        }
        Value::Object(m)
    }
}

impl Deserialize for ResponseEnvelope {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let m = as_object(v, "response envelope")?;
        let outcome = match (m.get("ok"), m.get("err")) {
            (Some(ok), None) => Ok(ServiceResponse::deserialize_value(ok)?),
            (None, Some(err)) => Err(WireError::deserialize_value(err)?),
            _ => {
                return Err(DeError::new(
                    "response envelope must carry exactly one of `ok`/`err`",
                ))
            }
        };
        Ok(ResponseEnvelope {
            v: u32::deserialize_value(field(m, "v")?)?,
            id: u64::deserialize_value(field(m, "id")?)?,
            outcome,
        })
    }
}

// ---- type-tagged payloads ----

fn tagged(t: &str) -> Map {
    let mut m = Map::new();
    m.insert("type", Value::Str(t.to_string()));
    m
}

fn field<'a>(m: &'a Map, name: &str) -> Result<&'a Value, DeError> {
    m.get(name)
        .ok_or_else(|| DeError::new(format!("missing field `{name}`")))
}

fn as_object<'a>(v: &'a Value, what: &str) -> Result<&'a Map, DeError> {
    match v {
        Value::Object(m) => Ok(m),
        other => Err(DeError::new(format!(
            "expected {what} object, found {other:?}"
        ))),
    }
}

fn type_tag(m: &Map) -> Result<&str, DeError> {
    match field(m, "type")? {
        Value::Str(s) => Ok(s.as_str()),
        other => Err(DeError::new(format!(
            "expected string `type` tag, found {other:?}"
        ))),
    }
}

impl Serialize for ServiceRequest {
    fn serialize_value(&self) -> Value {
        let m = match self {
            ServiceRequest::Open { circuit, config } => {
                let mut m = tagged("open");
                m.insert("circuit", circuit.serialize_value());
                m.insert("config", config.serialize_value());
                m
            }
            ServiceRequest::Edit(edits) => {
                let mut m = tagged("edit");
                m.insert("edits", edits.serialize_value());
                m
            }
            ServiceRequest::Query => tagged("query"),
            ServiceRequest::Stats => tagged("stats"),
            ServiceRequest::Verify => tagged("verify"),
            ServiceRequest::Close => tagged("close"),
        };
        Value::Object(m)
    }
}

impl Deserialize for ServiceRequest {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let m = as_object(v, "request")?;
        match type_tag(m)? {
            "open" => {
                // A derived Circuit deserialization bypasses Circuit::new;
                // rebuild through the validating constructor so a malformed
                // wire circuit (empty, pins off-die) is rejected here with
                // a typed error instead of corrupting a session.
                let raw = Circuit::deserialize_value(field(m, "circuit")?)?;
                let circuit = Circuit::new(raw.name(), *raw.die(), raw.nets().to_vec())
                    .map_err(|e| DeError::new(format!("invalid circuit: {e}")))?;
                Ok(ServiceRequest::Open {
                    circuit: Box::new(circuit),
                    config: Box::new(GsinoConfig::deserialize_value(field(m, "config")?)?),
                })
            }
            "edit" => Ok(ServiceRequest::Edit(Vec::<EcoEdit>::deserialize_value(
                field(m, "edits")?,
            )?)),
            "query" => Ok(ServiceRequest::Query),
            "stats" => Ok(ServiceRequest::Stats),
            "verify" => Ok(ServiceRequest::Verify),
            "close" => Ok(ServiceRequest::Close),
            other => Err(DeError::new(format!("unknown request type `{other}`"))),
        }
    }
}

impl Serialize for ServiceResponse {
    fn serialize_value(&self) -> Value {
        let m = match self {
            ServiceResponse::Opened { session } => {
                let mut m = tagged("opened");
                m.insert("session", session.serialize_value());
                m
            }
            ServiceResponse::Committed(receipt) => {
                let mut m = tagged("committed");
                m.insert("receipt", receipt.serialize_value());
                m
            }
            ServiceResponse::Snapshot(snapshot) => {
                let mut m = tagged("snapshot");
                m.insert("snapshot", snapshot.serialize_value());
                m
            }
            ServiceResponse::Stats(report) => {
                let mut m = tagged("stats");
                m.insert("report", report.serialize_value());
                m
            }
            ServiceResponse::Verified { clean } => {
                let mut m = tagged("verified");
                m.insert("clean", clean.serialize_value());
                m
            }
            ServiceResponse::Closed { session, stats } => {
                let mut m = tagged("closed");
                m.insert("session", session.serialize_value());
                m.insert("stats", stats.serialize_value());
                m
            }
        };
        Value::Object(m)
    }
}

impl Deserialize for ServiceResponse {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let m = as_object(v, "response")?;
        match type_tag(m)? {
            "opened" => Ok(ServiceResponse::Opened {
                session: String::deserialize_value(field(m, "session")?)?,
            }),
            "committed" => Ok(ServiceResponse::Committed(EditReceipt::deserialize_value(
                field(m, "receipt")?,
            )?)),
            "snapshot" => Ok(ServiceResponse::Snapshot(
                SessionSnapshot::deserialize_value(field(m, "snapshot")?)?,
            )),
            "stats" => Ok(ServiceResponse::Stats(StatsReport::deserialize_value(
                field(m, "report")?,
            )?)),
            "verified" => Ok(ServiceResponse::Verified {
                clean: bool::deserialize_value(field(m, "clean")?)?,
            }),
            "closed" => Ok(ServiceResponse::Closed {
                session: String::deserialize_value(field(m, "session")?)?,
                stats: SessionStats::deserialize_value(field(m, "stats")?)?,
            }),
            other => Err(DeError::new(format!("unknown response type `{other}`"))),
        }
    }
}

impl Serialize for EcoEdit {
    fn serialize_value(&self) -> Value {
        // The nested CircuitEdit flattens into the edit's own tag
        // (`add_net` / `remove_net` / `re_pin`) — the wire has one flat
        // edit vocabulary, not a nested enum-in-enum shape.
        let m = match self {
            EcoEdit::Circuit(CircuitEdit::AddNet { net }) => {
                let mut m = tagged("add_net");
                m.insert("net", net.serialize_value());
                m
            }
            EcoEdit::Circuit(CircuitEdit::RemoveNet { net }) => {
                let mut m = tagged("remove_net");
                m.insert("net", net.serialize_value());
                m
            }
            EcoEdit::Circuit(CircuitEdit::RePin { net, pins }) => {
                let mut m = tagged("re_pin");
                m.insert("net", net.serialize_value());
                m.insert("pins", pins.serialize_value());
                m
            }
            EcoEdit::TightenVth { net, sink, vth } => {
                let mut m = tagged("tighten_vth");
                m.insert("net", net.serialize_value());
                m.insert("sink", sink.serialize_value());
                m.insert("vth", vth.serialize_value());
                m
            }
            EcoEdit::RelaxVth { net, sink } => {
                let mut m = tagged("relax_vth");
                m.insert("net", net.serialize_value());
                m.insert("sink", sink.serialize_value());
                m
            }
            EcoEdit::Retile { tile_um } => {
                let mut m = tagged("retile");
                m.insert("tile_um", tile_um.serialize_value());
                m
            }
            EcoEdit::Reweight { weights } => {
                let mut m = tagged("reweight");
                m.insert("weights", weights.serialize_value());
                m
            }
        };
        Value::Object(m)
    }
}

impl Deserialize for EcoEdit {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let m = as_object(v, "edit")?;
        match type_tag(m)? {
            "add_net" => Ok(EcoEdit::Circuit(CircuitEdit::AddNet {
                net: Net::deserialize_value(field(m, "net")?)?,
            })),
            "remove_net" => Ok(EcoEdit::Circuit(CircuitEdit::RemoveNet {
                net: u32::deserialize_value(field(m, "net")?)?,
            })),
            "re_pin" => Ok(EcoEdit::Circuit(CircuitEdit::RePin {
                net: u32::deserialize_value(field(m, "net")?)?,
                pins: Vec::deserialize_value(field(m, "pins")?)?,
            })),
            "tighten_vth" => Ok(EcoEdit::TightenVth {
                net: u32::deserialize_value(field(m, "net")?)?,
                sink: u32::deserialize_value(field(m, "sink")?)?,
                vth: f64::deserialize_value(field(m, "vth")?)?,
            }),
            "relax_vth" => Ok(EcoEdit::RelaxVth {
                net: u32::deserialize_value(field(m, "net")?)?,
                sink: u32::deserialize_value(field(m, "sink")?)?,
            }),
            "retile" => Ok(EcoEdit::Retile {
                tile_um: f64::deserialize_value(field(m, "tile_um")?)?,
            }),
            "reweight" => Ok(EcoEdit::Reweight {
                weights: Weights::deserialize_value(field(m, "weights")?)?,
            }),
            other => Err(DeError::new(format!("unknown edit type `{other}`"))),
        }
    }
}
