//! `sim_digest`: one hash over every simulated stat, kernel count and
//! outcome field an entry point returns.
//!
//! The cost model is deterministic, so a host-only optimisation leaves the
//! digest unchanged and a change to what the model charges moves it. No
//! golden value is pinned anywhere: rounds are compared with each other,
//! and two commits with `compare`.

use gnn_device::DeviceReport;
use gnn_serve::{Outcome, ServeReport};
use gnn_train::NodeOutcome;

/// FNV-1a over 64-bit words. Also tracks whether every float was finite.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    hash: u64,
    finite: bool,
}

impl Digest {
    pub fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            finite: true,
        }
    }

    pub fn u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.finite &= x.is_finite();
        self.u64(x.to_bits());
    }

    pub fn f32(&mut self, x: f32) {
        self.finite &= x.is_finite();
        self.u64(u64::from(x.to_bits()));
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for byte in s.bytes() {
            self.u64(u64::from(byte));
        }
    }

    /// Whether every float hashed so far was finite.
    pub fn all_finite(&self) -> bool {
        self.finite
    }

    pub fn finish(&self) -> u64 {
        self.hash
    }

    pub fn device_report(&mut self, r: &DeviceReport) {
        self.f64(r.total_time);
        self.f64(r.busy_time);
        self.u64(r.kernel_count);
        for t in r.phase_times {
            self.f64(t);
        }
        self.u64(r.peak_memory);
        self.u64(r.persistent_memory);
        for (name, t) in &r.scopes {
            self.str(name);
            self.f64(*t);
        }
        for (kind, launches) in &r.kind_counts {
            self.str(kind.label());
            self.u64(*launches);
        }
        for p in &r.profile {
            self.str(p.kind.label());
            self.u64(p.launches);
            self.u64(p.flops);
            self.u64(p.bytes);
            self.f64(p.device_time);
        }
        self.u64(r.total_flops);
        self.u64(r.total_bytes);
    }

    /// Node-task and sampled-task outcomes share a type.
    pub fn node_outcome(&mut self, o: &NodeOutcome) {
        self.f64(o.test_acc);
        self.f64(o.best_val_acc);
        self.u64(o.epochs as u64);
        self.f64(o.epoch_time);
        self.f64(o.total_time);
        self.device_report(&o.report);
    }

    pub fn serve_report(&mut self, r: &ServeReport) {
        self.f64(r.makespan);
        self.u64(r.replicas_lost as u64);
        for q in &r.requests {
            self.u64(q.id);
            self.str(&q.endpoint);
            self.u64(u64::from(q.target));
            self.f64(q.enqueue);
            self.f64(q.dispatch);
            self.f64(q.reply);
            self.u64(q.batch.map_or(u64::MAX, |b| b));
            self.u64(q.batch_size as u64);
            for &x in &q.output {
                self.f32(x);
            }
            self.u64(u64::from(q.class));
            self.u64(match q.outcome {
                Outcome::Ok => 0,
                Outcome::Rejected(_) => 1,
                Outcome::Shed(_) => 2,
            });
        }
        for b in &r.batches {
            self.u64(b.id);
            self.u64(b.shard as u64);
            self.u64(b.replica as u64);
            self.f64(b.start);
            self.f64(b.duration);
            self.u64(b.size as u64);
            self.u64(b.oom_splits as u64);
            self.u64(b.kernel_retries as u64);
            self.u64(b.peak_memory);
        }
        if let Some(f) = &r.fleet {
            for n in [
                f.submitted,
                f.dispatched,
                f.retries,
                f.hedges,
                f.sheds,
                f.ejections,
                f.readmissions,
                f.scale_ups,
                f.scale_downs,
            ] {
                self.u64(n as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_content_both_move_the_hash() {
        let hash = |words: &[u64]| {
            let mut d = Digest::new();
            words.iter().for_each(|&w| d.u64(w));
            d.finish()
        };
        assert_eq!(hash(&[1, 2]), hash(&[1, 2]));
        assert_ne!(hash(&[1, 2]), hash(&[2, 1]));
        assert_ne!(hash(&[1, 2]), hash(&[1, 3]));
    }

    #[test]
    fn a_non_finite_float_is_remembered() {
        let mut d = Digest::new();
        d.f64(1.5);
        d.f32(-0.0);
        assert!(d.all_finite());
        d.f64(f64::NAN);
        d.f64(2.0);
        assert!(!d.all_finite());
    }
}
