//! Threading-cost table: what one pool dispatch costs and where fanning
//! a kernel or a forward out over the worker pool starts to pay.
//!
//! ```bash
//! cargo run --release -p specinfer-bench --bin bench_threads
//! ```
//!
//! Prints Markdown tables (medians of repeated timed batches):
//!
//! * the round trip of one pool job that needs a worker, with the worker
//!   still spinning from the previous job and with it parked;
//! * `[m, 96] × [96, 256]` (the LLM's FFN up-projection shape) on the
//!   serial blocked kernel vs split into two row halves on the pool;
//! * the LLM (`ModelConfig::tiny_llm`) prompt forward at 1…152 rows with
//!   the thread cap at 1 vs automatic.
//!
//! The thread count and SIMD backend are printed first; numbers are only
//! comparable between runs that share them.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use specinfer_model::{ModelConfig, Transformer};
use specinfer_tensor::rng::SeededRng;
use specinfer_tensor::{kernels, pool, simd, Tensor};

/// Median microseconds per call of `f`, over 31 batches sized so each
/// batch takes about a millisecond.
fn median_us(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let iters = ((1e-3 / once) as usize).clamp(1, 10_000);
    let mut samples: Vec<f64> = (0..31)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One pool job whose two chunks each wait for the other to start, so
/// the calling thread cannot finish both: the time covers publishing,
/// waking a worker, and waiting for it to detach.
fn wake_round_trip() {
    let arrived = AtomicUsize::new(0);
    pool::run(2, |_| {
        arrived.fetch_add(1, Ordering::AcqRel);
        while arrived.load(Ordering::Acquire) < 2 {
            std::hint::spin_loop();
        }
    });
}

fn main() {
    let threads = specinfer_tensor::effective_threads();
    println!(
        "effective_threads {threads}, SIMD backend {}\n",
        simd::backend().name()
    );

    if threads >= 2 {
        // Back to back, the worker is still spinning from the last job;
        // after a 2 ms pause it has parked and must be woken.
        let hot = median_us(wake_round_trip);
        let mut cold: Vec<f64> = (0..51)
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let t = Instant::now();
                wake_round_trip();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        cold.sort_by(f64::total_cmp);
        println!("| pool round trip, worker spinning | {hot:.1} µs |");
        println!("| pool round trip, worker parked | {:.1} µs |\n", cold[25]);
    }

    let (k, n) = (96, 256);
    println!("| m | serial µs | pooled (2 halves) µs | m·k·n |");
    println!("|---|---|---|---|");
    let mut rng = SeededRng::new(7);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    for m in [1, 2, 4, 8, 16, 21, 32, 48, 64, 96, 128, 160] {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        let serial = median_us(|| {
            out.iter_mut().for_each(|x| *x = 0.0);
            kernels::matmul_nn_block(a.data(), b.data(), &mut out, m, k, n);
            black_box(&out);
        });
        let pooled = if m >= 2 && threads >= 2 {
            let half = m.div_ceil(2);
            let pooled = median_us(|| {
                out.iter_mut().for_each(|x| *x = 0.0);
                let mut halves: Vec<&mut [f32]> = out.chunks_mut(half * n).collect();
                pool::for_each_mut(&mut halves, |i, o| {
                    let rows = o.len() / n;
                    let a_rows = &a.data()[i * half * k..(i * half + rows) * k];
                    kernels::matmul_nn_block(a_rows, b.data(), o, rows, k, n);
                });
                black_box(&out);
            });
            format!("{pooled:.1}")
        } else {
            "—".into()
        };
        println!("| {m} | {serial:.1} | {pooled} | {} |", m * k * n);
    }

    println!("\n| rows | forward, cap 1 µs | forward, automatic µs |");
    println!("|---|---|---|");
    let llm = Transformer::from_seed(ModelConfig::tiny_llm(), 1);
    for rows in [1, 4, 8, 16, 21, 32, 64, 96, 152] {
        let tokens: Vec<u32> = (0..rows as u32).map(|t| t % 200 + 1).collect();
        let mut cache = llm.new_cache();
        let mut time_at = |cap: usize| {
            specinfer_tensor::set_max_threads(cap);
            median_us(|| {
                cache.clear();
                black_box(llm.prefill(&tokens, &mut cache));
            })
        };
        let (serial, auto) = (time_at(1), time_at(0));
        println!("| {rows} | {serial:.0} | {auto:.0} |");
    }
}
