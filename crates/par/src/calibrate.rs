//! Measured machine constants for the cost model.
//!
//! The α–β model in [`crate::cost`] ships with *assumed* Curie-like
//! constants; this module measures them on an actual [`SpmdWorld`] — either
//! backend — with the two textbook microbenchmarks:
//!
//! * **ping-pong**: a 1-double round trip gives the message latency
//!   (`alpha_msg` = RTT/2); the *extra* time of a large round trip over the
//!   small one gives the bandwidth (`beta` = extra bytes / extra time);
//! * **all-reduce**: a small butterfly all-reduce divided by its stage count
//!   ([`crate::spmd::reduce_stages`]) gives the per-stage reduction latency
//!   (`alpha_reduce`).
//!
//! Feed the result to
//! [`CostModel::calibrated`](crate::cost::CostModel::calibrated) and the
//! strong-scaling projections are anchored to wire reality instead of
//! assumptions — the measured-vs-modeled table `kryst_prof` prints.

use crate::spmd::{reduce_stages, SpmdWorld};
use crate::transport::TransportError;
use kryst_obs::json::JsonValue;

/// Doubles in the large ping-pong payload (512 KiB: bandwidth-dominated).
const LARGE_LEN: usize = 65_536;

/// Measured machine constants for one transport backend.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Backend the constants were measured on (`"channel"` / `"socket"`).
    pub backend: String,
    /// World size of the measuring run.
    pub nranks: usize,
    /// Point-to-point message latency (seconds): half the small-message RTT.
    pub alpha_msg: f64,
    /// Per-stage reduction latency (seconds): small all-reduce time divided
    /// by its butterfly stage count.
    pub alpha_reduce: f64,
    /// Link bandwidth (bytes/second) from the large-vs-small ping-pong
    /// difference.
    pub beta: f64,
}

fn positive_or(v: f64, fallback: f64) -> f64 {
    if v.is_finite() && v > 0.0 {
        v
    } else {
        fallback
    }
}

impl Calibration {
    /// Run the microbenchmarks on `world` (`reps` timed repetitions each,
    /// after a short warmup) and distill the constants. Measurements that
    /// come out non-positive (clock granularity on a very fast backend) fall
    /// back to the Curie-like defaults so the resulting model is always
    /// usable.
    pub fn measure(world: &SpmdWorld, reps: usize) -> Result<Self, TransportError> {
        let reps = reps.max(1);
        let defaults = crate::cost::CostModel::curie_like();

        // Warmup: touch every code path once so allocator and socket
        // buffers are primed before anything is timed.
        world.ping_pong(1, 4)?;
        world.ping_pong(LARGE_LEN, 2)?;
        world.all_reduce(8, 4)?;

        let rtt_small = world.ping_pong(1, reps)?.as_secs_f64() / reps as f64;
        let rtt_large = world.ping_pong(LARGE_LEN, reps)?.as_secs_f64() / reps as f64;
        let alpha_msg = positive_or(rtt_small / 2.0, defaults.alpha_msg);
        // A round trip moves the payload twice; only the excess over the
        // small RTT is bandwidth.
        let beta = positive_or(
            (2 * LARGE_LEN * 8) as f64 / (rtt_large - rtt_small),
            defaults.beta,
        );

        let stages = f64::from(reduce_stages(world.nranks())).max(1.0);
        let t_reduce = world.all_reduce(8, reps)?.as_secs_f64() / reps as f64;
        let alpha_reduce = positive_or(t_reduce / stages, defaults.alpha_reduce);

        Ok(Calibration {
            backend: world.kind().name().to_string(),
            nranks: world.nranks(),
            alpha_msg,
            alpha_reduce,
            beta,
        })
    }

    /// The calibration as a [`JsonValue`] object (for embedding in larger
    /// documents).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("backend", self.backend.as_str().into()),
            ("nranks", self.nranks.into()),
            ("alpha_msg", self.alpha_msg.into()),
            ("alpha_reduce", self.alpha_reduce.into()),
            ("beta", self.beta.into()),
        ])
    }

    /// Serialize as a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Read back a [`Calibration::to_json_value`] object. `None` when a
    /// field is missing or of the wrong type.
    pub fn from_json_value(v: &JsonValue) -> Option<Self> {
        Some(Calibration {
            backend: v.get("backend")?.as_str()?.to_string(),
            nranks: v.get("nranks")?.as_usize()?,
            alpha_msg: v.get("alpha_msg")?.as_f64()?,
            alpha_reduce: v.get("alpha_reduce")?.as_f64()?,
            beta: v.get("beta")?.as_f64()?,
        })
    }

    /// Parse a [`Calibration::to_json`] document. `None` on malformed input.
    pub fn from_json(src: &str) -> Option<Self> {
        Self::from_json_value(&JsonValue::parse(src).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportKind;

    #[test]
    fn json_round_trips() {
        let c = Calibration {
            backend: "socket".into(),
            nranks: 4,
            alpha_msg: 1.25e-6,
            alpha_reduce: 2.5e-6,
            beta: 3.1e9,
        };
        assert_eq!(Calibration::from_json(&c.to_json()), Some(c));
        assert_eq!(Calibration::from_json("{\"backend\":\"x\"}"), None);
    }

    #[test]
    fn channel_world_measures_positive_finite_constants() {
        let world = SpmdWorld::spawn(TransportKind::Channel, 2).expect("world spawns");
        let c = Calibration::measure(&world, 4).expect("calibration runs");
        world.shutdown().expect("clean shutdown");
        for (name, v) in [
            ("alpha_msg", c.alpha_msg),
            ("alpha_reduce", c.alpha_reduce),
            ("beta", c.beta),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
        assert_eq!(c.backend, "channel");
        assert_eq!(c.nranks, 2);
    }
}
