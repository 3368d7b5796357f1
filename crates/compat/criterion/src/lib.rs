//! Offline stand-in for `criterion`.
//!
//! Implements the API subset the workspace's benches use — groups,
//! `bench_function` / `bench_with_input`, `iter` / `iter_with_setup`,
//! `Throughput`, `BenchmarkId`, and the `criterion_group!` /
//! `criterion_main!` macros — with a simple wall-clock measurement loop
//! (median of per-sample means) instead of criterion's full statistics.

use std::fmt::Display;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", function_name.into(), parameter))
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_owned())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

pub struct Bencher {
    /// Mean wall-clock time per iteration for the last `iter*` call.
    mean: Duration,
    samples: usize,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            mean: Duration::ZERO,
            samples,
        }
    }

    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(routine());
            times.push(start.elapsed());
        }
        times.sort_unstable();
        self.mean = times[times.len() / 2];
    }

    pub fn iter_with_setup<I, O, S, F>(&mut self, mut setup: S, mut routine: F)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            times.push(start.elapsed());
        }
        times.sort_unstable();
        self.mean = times[times.len() / 2];
    }
}

pub struct Criterion {
    samples: usize,
    /// `--test` on the command line, as with the real crate: run every
    /// benchmark once to prove it still works, whatever sample size it
    /// asks for.
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep runs quick; CRITERION_SAMPLES overrides for careful timing.
        let samples = std::env::var("CRITERION_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10);
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            samples: if test_mode { 1 } else { samples },
            test_mode,
        }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            samples: self.samples,
            test_mode: self.test_mode,
            throughput: None,
            _parent: std::marker::PhantomData,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let samples = self.samples;
        run_one(&id.into().0, samples, None, f);
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    test_mode: bool,
    throughput: Option<Throughput>,
    _parent: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if !self.test_mode {
            self.samples = n.max(1);
        }
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into().0);
        run_one(&id, self.samples, self.throughput, f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let id = format!("{}/{}", self.name, id.0);
        run_one(&id, self.samples, self.throughput, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    id: &str,
    samples: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut bencher = Bencher::new(samples);
    f(&mut bencher);
    let per_iter = bencher.mean;
    let rate = match throughput {
        Some(Throughput::Bytes(bytes)) if per_iter > Duration::ZERO => {
            let gib = bytes as f64 / (1u64 << 30) as f64 / per_iter.as_secs_f64();
            format!("  {gib:.3} GiB/s")
        }
        Some(Throughput::Elements(n)) if per_iter > Duration::ZERO => {
            let meps = n as f64 / 1e6 / per_iter.as_secs_f64();
            format!("  {meps:.3} Melem/s")
        }
        _ => String::new(),
    };
    println!("{id:<60} {per_iter:>12.3?}/iter{rate}");
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion {
            samples: 3,
            test_mode: false,
        };
        let mut group = c.benchmark_group("t");
        group.sample_size(3);
        group.throughput(Throughput::Bytes(1024));
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("param", 4), &4u32, |b, &x| {
            b.iter_with_setup(|| x, |v| v * 2)
        });
        group.finish();
    }
}
