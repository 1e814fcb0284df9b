//! The on-disk workload format: an ISPD'98/Labyrinth-style netlist/grid
//! text file ([`parse_workload`], [`write_workload`], [`Workload`]), so
//! real benchmark instances can be ingested and generated ladders
//! round-trip through plain text, byte for byte, without re-running the
//! generator. The grammar is documented on [`parse_workload`] and in this
//! crate's `README.md`.

use gsino_grid::geom::{Point, Rect};
use gsino_grid::net::{Circuit, Net};
use gsino_grid::region::RegionGrid;
use gsino_grid::tech::Technology;
use gsino_grid::GridError;
use std::io::{Read, Write};
use std::path::Path;

/// Pin-count ceiling per net record — generous next to the generator's
/// 16-pin cap, tight enough that a corrupt count can't allocate the moon.
pub const MAX_NET_PINS: u64 = 65_536;

/// Typed errors from the workload text parser, each carrying the
/// 1-based line number it was detected on.
#[derive(Debug)]
pub enum ParseError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A malformed line: unknown directive, wrong token count, duplicate
    /// directive or net id, content after the last declared net.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A token where a number was expected failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The file ended before the declared structure was complete.
    Truncated {
        /// 1-based line number of the last line read.
        line: usize,
        /// What the parser was still expecting.
        expected: String,
    },
    /// A declared count overflows the `u32` index space the flat-array
    /// cores use (regions, nets) or the per-net pin ceiling.
    TooLarge {
        /// 1-based line number.
        line: usize,
        /// What overflowed (`"regions"`, `"nets"`, `"pins"`, …).
        what: &'static str,
        /// The declared value.
        value: u64,
        /// The maximum admitted.
        limit: u64,
    },
    /// The parsed workload failed semantic validation (pin outside the
    /// die, empty net, degenerate tile, …).
    Grid {
        /// 1-based line number (0 when the failure is whole-file).
        line: usize,
        /// The underlying substrate error.
        source: GridError,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io failure: {e}"),
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::BadNumber { line, token } => {
                write!(f, "line {line}: expected a number, got `{token}`")
            }
            ParseError::Truncated { line, expected } => {
                write!(f, "file truncated after line {line}: expected {expected}")
            }
            ParseError::TooLarge {
                line,
                what,
                value,
                limit,
            } => write!(
                f,
                "line {line}: {what} count {value} exceeds the limit {limit}"
            ),
            ParseError::Grid { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            ParseError::Grid { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// A parsed (or to-be-written) workload: a circuit plus the routing-grid
/// parameters the file dictates — grid dimensions, per-region capacities
/// and tile size. This is what the scale ladder feeds the pipeline.
///
/// The die is always `(0,0) – (nx·tile_w, ny·tile_h)`, recomputed
/// identically by [`Workload::new`] and [`parse_workload`], which is what
/// makes `parse ∘ write` the identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    nx: u32,
    ny: u32,
    hc: u32,
    vc: u32,
    tile_w: f64,
    tile_h: f64,
    circuit: Circuit,
}

impl Workload {
    /// Assembles and validates a workload. The die is derived as
    /// `(0,0) – (nx·tile_w, ny·tile_h)` and every net is validated
    /// against it.
    ///
    /// # Errors
    ///
    /// * [`GridError::BadTile`] for zero dimensions/capacities or a
    ///   non-finite/non-positive tile;
    /// * [`GridError::TooLarge`] if `nx * ny` overflows the `u32` region
    ///   index space;
    /// * any [`Circuit::new`] validation error.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        nx: u32,
        ny: u32,
        hc: u32,
        vc: u32,
        tile_w: f64,
        tile_h: f64,
        nets: Vec<Net>,
    ) -> Result<Self, GridError> {
        if nx == 0 || ny == 0 || hc == 0 || vc == 0 {
            return Err(GridError::BadTile { tile: 0.0 });
        }
        if !(tile_w.is_finite() && tile_w > 0.0) {
            return Err(GridError::BadTile { tile: tile_w });
        }
        if !(tile_h.is_finite() && tile_h > 0.0) {
            return Err(GridError::BadTile { tile: tile_h });
        }
        if nx.checked_mul(ny).is_none() {
            return Err(GridError::TooLarge {
                what: "regions",
                value: nx as u64 * ny as u64,
                limit: u32::MAX as u64,
            });
        }
        let die = Rect::new(
            Point::new(0.0, 0.0),
            Point::new(nx as f64 * tile_w, ny as f64 * tile_h),
        )?;
        let circuit = Circuit::new(name, die, nets)?;
        Ok(Workload {
            nx,
            ny,
            hc,
            vc,
            tile_w,
            tile_h,
            circuit,
        })
    }

    /// Region columns.
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Region rows.
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Horizontal track capacity per region.
    pub fn hc(&self) -> u32 {
        self.hc
    }

    /// Vertical track capacity per region.
    pub fn vc(&self) -> u32 {
        self.vc
    }

    /// Tile width (µm).
    pub fn tile_w(&self) -> f64 {
        self.tile_w
    }

    /// Tile height (µm).
    pub fn tile_h(&self) -> f64 {
        self.tile_h
    }

    /// The validated circuit (die + nets).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Consumes the workload, yielding the circuit.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// The workload name (the circuit's name).
    pub fn name(&self) -> &str {
        self.circuit.name()
    }

    /// Builds the routing grid this file dictates: its exact `nx × ny`
    /// dimensions and capacities, with pitch/utilization from `tech`.
    ///
    /// # Errors
    ///
    /// Propagates [`RegionGrid::with_capacities`] errors (cannot occur
    /// for a validated workload).
    pub fn grid(&self, tech: &Technology) -> Result<RegionGrid, GridError> {
        RegionGrid::with_capacities(
            *self.circuit.die(),
            self.nx,
            self.ny,
            self.hc,
            self.vc,
            tech,
        )
    }
}

/// Strips a trailing `# comment` and surrounding whitespace; returns
/// `None` for lines with no content.
fn content_of(raw: &str) -> Option<&str> {
    let body = match raw.find('#') {
        Some(i) => &raw[..i],
        None => raw,
    };
    let body = body.trim();
    (!body.is_empty()).then_some(body)
}

/// Line cursor over the input: yields non-blank, comment-stripped lines
/// with their 1-based numbers and remembers the last line touched for
/// truncation reports.
struct Cursor<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    last: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor {
            lines: s.lines().enumerate(),
            last: 0,
        }
    }

    fn next_content(&mut self) -> Option<(usize, &'a str)> {
        for (i, raw) in self.lines.by_ref() {
            self.last = i + 1;
            if let Some(body) = content_of(raw) {
                return Some((i + 1, body));
            }
        }
        None
    }
}

/// Parses `token` as an unsigned count, range-checking against `limit`.
fn parse_count(
    line: usize,
    token: &str,
    what: &'static str,
    limit: u64,
) -> Result<u64, ParseError> {
    let value: u64 = token.parse().map_err(|_| ParseError::BadNumber {
        line,
        token: token.to_string(),
    })?;
    if value > limit {
        return Err(ParseError::TooLarge {
            line,
            what,
            value,
            limit,
        });
    }
    Ok(value)
}

/// Parses `token` as a finite `f64`.
fn parse_float(line: usize, token: &str) -> Result<f64, ParseError> {
    let v: f64 = token.parse().map_err(|_| ParseError::BadNumber {
        line,
        token: token.to_string(),
    })?;
    if !v.is_finite() {
        return Err(ParseError::BadNumber {
            line,
            token: token.to_string(),
        });
    }
    Ok(v)
}

/// Parses a workload from the ISPD-style text format.
///
/// # Grammar
///
/// Blank lines are skipped and `#` starts a comment (full-line or
/// trailing) anywhere. Header directives come in any order before
/// `num net`; `grid`, `vertical capacity` and `horizontal capacity` are
/// required, `name` (default `workload`) and `tile` (default `64 64`)
/// optional:
///
/// ```text
/// name  <string>               # workload name
/// grid  <nx> <ny>              # region columns × rows
/// vertical capacity   <vc>     # tracks per region, vertical
/// horizontal capacity <hc>     # tracks per region, horizontal
/// tile  <tile_w> <tile_h>      # region tile size in µm
/// num net <n>                  # ends the header
/// net <name> <id> <npins>      # one record per net, ids unique
///   <x> <y>                    # npins pin lines, µm, source first
/// ```
///
/// The die is `(0,0) – (nx·tile_w, ny·tile_h)`; every pin must fall
/// inside it. Anything after the last declared net is an error.
///
/// # Errors
///
/// Every failure is a typed [`ParseError`] carrying the 1-based line
/// number: syntax violations, malformed numbers, truncation, counts
/// overflowing the `u32` index space ([`ParseError::TooLarge`]) and
/// semantic validation failures ([`ParseError::Grid`]).
pub fn parse_workload_str(input: &str) -> Result<Workload, ParseError> {
    let mut cur = Cursor::new(input);
    let mut name: Option<String> = None;
    let mut dims: Option<(usize, u32, u32)> = None;
    let mut vc: Option<u32> = None;
    let mut hc: Option<u32> = None;
    let mut tile: Option<(f64, f64)> = None;
    let mut num_nets: Option<(usize, u64)> = None;

    // Header: directives in any order until `num net`.
    while num_nets.is_none() {
        let Some((line, body)) = cur.next_content() else {
            return Err(ParseError::Truncated {
                line: cur.last,
                expected: "`num net <n>` header directive".to_string(),
            });
        };
        let toks: Vec<&str> = body.split_whitespace().collect();
        let dup = |what: &str| ParseError::Syntax {
            line,
            message: format!("duplicate `{what}` directive"),
        };
        match toks.as_slice() {
            ["name", ..] => {
                if name.is_some() {
                    return Err(dup("name"));
                }
                name = Some(body["name".len()..].trim().to_string());
            }
            ["grid", nx, ny] => {
                if dims.is_some() {
                    return Err(dup("grid"));
                }
                let limit = u32::MAX as u64;
                let nx = parse_count(line, nx, "regions per axis", limit)? as u32;
                let ny = parse_count(line, ny, "regions per axis", limit)? as u32;
                if nx == 0 || ny == 0 {
                    return Err(ParseError::Syntax {
                        line,
                        message: "grid dimensions must be positive".to_string(),
                    });
                }
                if nx.checked_mul(ny).is_none() {
                    return Err(ParseError::TooLarge {
                        line,
                        what: "regions",
                        value: nx as u64 * ny as u64,
                        limit,
                    });
                }
                dims = Some((line, nx, ny));
            }
            ["vertical", "capacity", c] => {
                if vc.is_some() {
                    return Err(dup("vertical capacity"));
                }
                vc = Some(parse_count(line, c, "tracks", u32::MAX as u64)? as u32);
            }
            ["horizontal", "capacity", c] => {
                if hc.is_some() {
                    return Err(dup("horizontal capacity"));
                }
                hc = Some(parse_count(line, c, "tracks", u32::MAX as u64)? as u32);
            }
            ["tile", tw, th] => {
                if tile.is_some() {
                    return Err(dup("tile"));
                }
                tile = Some((parse_float(line, tw)?, parse_float(line, th)?));
            }
            ["num", "net", n] => {
                num_nets = Some((line, parse_count(line, n, "nets", u32::MAX as u64)?));
            }
            _ => {
                return Err(ParseError::Syntax {
                    line,
                    message: format!("unrecognized header directive `{body}`"),
                });
            }
        }
    }

    let (nets_line, declared) = num_nets.expect("loop exits with num_nets set");
    let missing = |what: &str| ParseError::Syntax {
        line: nets_line,
        message: format!("missing required `{what}` directive before `num net`"),
    };
    let (_, nx, ny) = dims.ok_or_else(|| missing("grid"))?;
    let vc = vc.ok_or_else(|| missing("vertical capacity"))?;
    let hc = hc.ok_or_else(|| missing("horizontal capacity"))?;
    let (tile_w, tile_h) = tile.unwrap_or((64.0, 64.0));
    let name = name.unwrap_or_else(|| "workload".to_string());

    // The die every pin must fall inside, exactly as Workload::new will
    // recompute it.
    let die_w = nx as f64 * tile_w;
    let die_h = ny as f64 * tile_h;

    // Net records.
    let mut nets: Vec<Net> = Vec::with_capacity(declared.min(1 << 20) as usize);
    let mut seen = std::collections::HashSet::with_capacity(nets.capacity());
    for k in 0..declared {
        let Some((line, body)) = cur.next_content() else {
            return Err(ParseError::Truncated {
                line: cur.last,
                expected: format!("net record {k} of {declared}"),
            });
        };
        let toks: Vec<&str> = body.split_whitespace().collect();
        let ["net", _name, id, npins] = toks.as_slice() else {
            return Err(ParseError::Syntax {
                line,
                message: format!("expected `net <name> <id> <npins>`, got `{body}`"),
            });
        };
        let id = parse_count(line, id, "net id", u32::MAX as u64)? as u32;
        if !seen.insert(id) {
            return Err(ParseError::Syntax {
                line,
                message: format!("duplicate net id {id}"),
            });
        }
        let npins = parse_count(line, npins, "pins", MAX_NET_PINS)?;
        if npins == 0 {
            return Err(ParseError::Grid {
                line,
                source: GridError::EmptyNet { net: id },
            });
        }
        let mut pins = Vec::with_capacity(npins as usize);
        for p in 0..npins {
            let Some((pline, pbody)) = cur.next_content() else {
                return Err(ParseError::Truncated {
                    line: cur.last,
                    expected: format!("pin {p} of {npins} for net {id}"),
                });
            };
            let ptoks: Vec<&str> = pbody.split_whitespace().collect();
            let [x, y] = ptoks.as_slice() else {
                return Err(ParseError::Syntax {
                    line: pline,
                    message: format!("expected `<x> <y>` pin line, got `{pbody}`"),
                });
            };
            let x = parse_float(pline, x)?;
            let y = parse_float(pline, y)?;
            if !(0.0..=die_w).contains(&x) || !(0.0..=die_h).contains(&y) {
                return Err(ParseError::Grid {
                    line: pline,
                    source: GridError::PinOutsideDie {
                        net: id,
                        at: (x, y),
                    },
                });
            }
            pins.push(Point::new(x, y));
        }
        nets.push(Net::new(id, pins));
    }
    if let Some((line, body)) = cur.next_content() {
        return Err(ParseError::Syntax {
            line,
            message: format!("content after the last declared net: `{body}`"),
        });
    }

    Workload::new(name, nx, ny, hc, vc, tile_w, tile_h, nets)
        .map_err(|source| ParseError::Grid { line: 0, source })
}

/// [`parse_workload_str`] over any reader.
///
/// # Errors
///
/// [`ParseError::Io`] on read failure, otherwise as
/// [`parse_workload_str`].
pub fn parse_workload<R: Read>(mut r: R) -> Result<Workload, ParseError> {
    let mut s = String::new();
    r.read_to_string(&mut s)?;
    parse_workload_str(&s)
}

/// Loads a workload from a text file.
///
/// # Errors
///
/// As [`parse_workload`].
pub fn load_workload(path: impl AsRef<Path>) -> Result<Workload, ParseError> {
    parse_workload(std::fs::File::open(path)?)
}

/// Writes a workload in the text format [`parse_workload`] reads.
///
/// Coordinates print with Rust's default `f64` display (the shortest
/// string that parses back to the same bits), so
/// `parse_workload(write_workload(w)) == w` exactly — property-tested in
/// `tests/workload_format.rs`.
///
/// # Errors
///
/// The writer's I/O error.
pub fn write_workload<W: Write>(wl: &Workload, mut out: W) -> std::io::Result<()> {
    let c = wl.circuit();
    writeln!(out, "# gsino workload")?;
    writeln!(out, "name {}", c.name())?;
    writeln!(out, "grid {} {}", wl.nx(), wl.ny())?;
    writeln!(out, "vertical capacity {}", wl.vc())?;
    writeln!(out, "horizontal capacity {}", wl.hc())?;
    writeln!(out, "tile {} {}", wl.tile_w(), wl.tile_h())?;
    writeln!(out, "num net {}", c.num_nets())?;
    for net in c.nets() {
        writeln!(out, "net n{} {} {}", net.id(), net.id(), net.degree())?;
        for p in net.pins() {
            writeln!(out, "  {} {}", p.x, p.y)?;
        }
    }
    Ok(())
}

/// Saves a workload to a text file.
///
/// # Errors
///
/// The file's I/O error.
pub fn save_workload(wl: &Workload, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_workload(wl, std::fs::File::create(path)?)
}
