//! The machine's speed at the moment of measurement.
//!
//! On a shared host the same code runs up to twice as slow for seconds to
//! minutes at a time, and the phase changes between runs. Every timing the
//! benchmark reports is therefore converted to *reference time*: the wall
//! time divided by how long a fixed probe took right before and right
//! after it, times the probe's nominal time [`REFERENCE_MS`]. The probe is
//! the benchmark's own code and calls nothing in the program, so a change
//! to the program moves the reported times in full.
//!
//! The probe is three small kernels that the program's hot paths
//! resemble: nearest-neighbour queries on a bucketed point set (float
//! maths, branches and scattered reads from cache), an integer sort
//! (branches and streaming reads) and a pointer chase through a table far
//! larger than the cache (main-memory latency, which the 1M-task serve
//! session leans on). Its time is their geometric mean. It allocates
//! nothing after [`Probe::new`], so it does not move the heap figures.

use crate::clock;

/// What one probe takes at the reference speed, in ms. Every reported
/// time is in ms (or s) at this speed.
pub const REFERENCE_MS: f64 = 10.0;

/// Side of the query grid.
const SIDE: usize = 128;
/// Points in the query set.
const POINTS: usize = 65_536;
/// Queries per probe.
const QUERIES: usize = 12_000;
/// Keys sorted per probe.
const KEYS: usize = 262_144;
/// Slots of the pointer-chase table: 64 MiB of `u32`.
const CHASE_SLOTS: usize = 1 << 24;
/// Steps of the pointer chase per probe.
const CHASE_STEPS: usize = 60_000;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A single cycle through every slot: Sattolo's shuffle.
fn chase_table() -> Vec<u32> {
    let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..CHASE_SLOTS).rev() {
        let j = (xorshift(&mut state) as usize) % i;
        next.swap(i, j);
    }
    next
}

fn cell_of(x: f64, y: f64) -> (usize, usize) {
    let c = |v: f64| ((v * SIDE as f64) as usize).min(SIDE - 1);
    (c(x), c(y))
}

/// The probe's fixed inputs and its last reading.
pub struct Probe {
    /// `points[start[c]..start[c + 1]]` are the points in grid cell `c`.
    start: Vec<u32>,
    points: Vec<(f64, f64)>,
    keys: Vec<u64>,
    /// `chase[i]` is the slot after `i` on the chase's cycle.
    chase: Vec<u32>,
    /// Where the next chase starts, so each reads lines not yet cached.
    chase_at: u32,
    last_ms: f64,
}

impl Probe {
    /// Builds the probe's inputs and takes a first reading.
    pub fn new() -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut points: Vec<(f64, f64)> =
            (0..POINTS).map(|_| (unit(&mut s), unit(&mut s))).collect();
        let index = |p: &(f64, f64)| {
            let (x, y) = cell_of(p.0, p.1);
            y * SIDE + x
        };
        points.sort_by_key(index);
        let mut start = vec![0u32; SIDE * SIDE + 1];
        for p in &points {
            start[index(p) + 1] += 1;
        }
        for c in 0..SIDE * SIDE {
            start[c + 1] += start[c];
        }
        let mut probe = Probe {
            start,
            points,
            keys: vec![0; KEYS],
            chase: chase_table(),
            chase_at: 0,
            last_ms: 0.0,
        };
        probe.read();
        probe.mark();
        probe
    }

    /// Nearest-neighbour queries over the 3 × 3 cells around each query.
    fn queries_ms(&self) -> f64 {
        let t = clock::now();
        let mut s = 0xD1B5_4A32_D192_ED03u64;
        let mut sum = 0.0;
        for _ in 0..QUERIES {
            let (qx, qy) = (unit(&mut s), unit(&mut s));
            let (cx, cy) = cell_of(qx, qy);
            let mut best = f64::INFINITY;
            for y in cy.saturating_sub(1)..=(cy + 1).min(SIDE - 1) {
                for x in cx.saturating_sub(1)..=(cx + 1).min(SIDE - 1) {
                    let c = y * SIDE + x;
                    let cell = &self.points[self.start[c] as usize..self.start[c + 1] as usize];
                    for p in cell {
                        let d = (p.0 - qx).hypot(p.1 - qy);
                        if d < best {
                            best = d;
                        }
                    }
                }
            }
            sum += best;
        }
        std::hint::black_box(sum);
        clock::ms_between(t, clock::now())
    }

    /// Sorts the same pseudo-random keys, refilled in place.
    fn sort_ms(&mut self) -> f64 {
        let mut s = 0x94D0_49BB_1331_11EBu64;
        for k in &mut self.keys {
            *k = xorshift(&mut s);
        }
        let t = clock::now();
        self.keys.sort_unstable();
        let ms = clock::ms_between(t, clock::now());
        std::hint::black_box(&self.keys);
        ms
    }

    /// Follows the chase's cycle on from where the last chase stopped.
    fn chase_ms(&mut self) -> f64 {
        let t = clock::now();
        let mut at = self.chase_at;
        for _ in 0..CHASE_STEPS {
            at = self.chase[at as usize];
        }
        let ms = clock::ms_between(t, clock::now());
        self.chase_at = std::hint::black_box(at);
        ms
    }

    /// Runs the probe once and returns its time in ms.
    fn read(&mut self) -> f64 {
        (self.queries_ms() * self.sort_ms() * self.chase_ms()).cbrt()
    }

    /// Takes a reading to open a measurement.
    pub fn mark(&mut self) {
        self.last_ms = self.read();
    }

    /// Closes the measurement opened by the previous [`Probe::mark`] or
    /// [`Probe::scale`], opens the next one, and returns the factor that
    /// converts wall time spent in between into reference time.
    pub fn scale(&mut self) -> f64 {
        let now = self.read();
        let factor = 2.0 * REFERENCE_MS / (self.last_ms + now);
        self.last_ms = now;
        factor
    }
}
