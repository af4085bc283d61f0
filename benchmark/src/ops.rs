//! The four workloads and their seeded op streams. The system under test
//! sees only the generated ops; nothing here reads a clock.

use crate::rng::{derive, SplitMix64};

/// Closed loop, two client threads (`nproc` is 2 on the reference
/// sandbox): the paper's callers — an editor closing a file, a database
/// session committing — each wait for their reply.
pub const CLIENTS: usize = 2;
/// Pre-linked base files every workload carries (the `dl_files` table and
/// the host metadata table are never empty).
pub const BASE_FILES: u32 = 512;
/// Files both clients share in `read_mix`, taking 80 % of its accesses.
pub const HOT_FILES: u32 = 16;
/// Private, pre-created, unlinked files per client in `lifecycle_*`.
pub const CHURN_FILES: u32 = 2048;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UipDurable,
    ReadMix,
    LifecycleLocal,
    LifecycleWire,
}

pub const WORKLOADS: [Workload; 4] =
    [Workload::UipDurable, Workload::ReadMix, Workload::LifecycleLocal, Workload::LifecycleWire];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    Update,
    Read,
    Link,
    Unlink,
}

pub const OP_KINDS: [OpKind; 4] = [OpKind::Update, OpKind::Read, OpKind::Link, OpKind::Unlink];

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Update => "update",
            OpKind::Read => "read",
            OpKind::Link => "link",
            OpKind::Unlink => "unlink",
        }
    }
}

/// One client operation. `file` indexes the base files for
/// `uip_durable`/`read_mix` and the client's private churn files for
/// `lifecycle_*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub file: u32,
}

/// Op counts of one episode, per client. An episode is a fixed amount of
/// work on a fresh system — throughput here drifts as repository state
/// accumulates, so equal op counts (not equal time) are what make two
/// episodes, and two commits, comparable. Sized so one episode takes
/// about three seconds on the reference sandbox and every op type a
/// workload reports clears the 1,000 samples its p99 needs.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeSize {
    pub warmup: usize,
    pub timed: usize,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::UipDurable => "uip_durable",
            Workload::ReadMix => "read_mix",
            Workload::LifecycleLocal => "lifecycle_local",
            Workload::LifecycleWire => "lifecycle_wire",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn is_lifecycle(self) -> bool {
        matches!(self, Workload::LifecycleLocal | Workload::LifecycleWire)
    }

    /// The generator family: `lifecycle_local` and `lifecycle_wire` share
    /// one, so their op streams (and input hashes) are byte-identical.
    fn family(self) -> u64 {
        match self {
            Workload::UipDurable => 1,
            Workload::ReadMix => 2,
            Workload::LifecycleLocal | Workload::LifecycleWire => 3,
        }
    }

    pub fn episode_size(self) -> EpisodeSize {
        match self {
            Workload::UipDurable => EpisodeSize { warmup: 250, timed: 2_000 },
            Workload::ReadMix => EpisodeSize { warmup: 1_000, timed: 16_000 },
            // In ops; four ops make one lifecycle. One size for both
            // transports: the wire row must execute the local row's bytes.
            Workload::LifecycleLocal | Workload::LifecycleWire => {
                EpisodeSize { warmup: 400, timed: 4_800 }
            }
        }
    }

    /// The op stream of `client` for one episode: `warmup + timed` ops.
    pub fn episode_ops(self, seed: u64, client: usize) -> Vec<Op> {
        let size = self.episode_size();
        self.ops(seed, client, size.warmup + size.timed)
    }

    /// The first `n` ops of `client`'s stream.
    pub fn ops(self, seed: u64, client: usize, n: usize) -> Vec<Op> {
        let mut rng = SplitMix64::new(derive(seed, self.family(), client as u64));
        let mut ops = Vec::with_capacity(n);
        match self {
            Workload::UipDurable => {
                // Each client owns a disjoint half of the base files.
                let half = (BASE_FILES / CLIENTS as u32) as u64;
                for _ in 0..n {
                    let file = client as u32 * half as u32 + rng.below(half) as u32;
                    ops.push(Op { kind: OpKind::Update, file });
                }
            }
            Workload::ReadMix => {
                for _ in 0..n {
                    let kind = if rng.below(10) == 0 { OpKind::Update } else { OpKind::Read };
                    let file = if rng.below(5) < 4 {
                        rng.below(HOT_FILES as u64) as u32
                    } else {
                        rng.below(BASE_FILES as u64) as u32
                    };
                    ops.push(Op { kind, file });
                }
            }
            Workload::LifecycleLocal | Workload::LifecycleWire => {
                assert!(n.is_multiple_of(4), "lifecycles are four ops");
                for _ in 0..n / 4 {
                    let file = rng.below(CHURN_FILES as u64) as u32;
                    for kind in [OpKind::Link, OpKind::Update, OpKind::Read, OpKind::Unlink] {
                        ops.push(Op { kind, file });
                    }
                }
            }
        }
        ops
    }

    /// FNV-1a over every client's op stream — printed per run so two runs
    /// (or the local/wire pair) can be shown to have executed the same
    /// inputs.
    pub fn input_hash(self, seed: u64) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for client in 0..CLIENTS {
            for op in self.episode_ops(seed, client) {
                eat(op.kind as u8);
                op.file.to_le_bytes().into_iter().for_each(&mut eat);
            }
            eat(0xFF);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for w in WORKLOADS {
            assert_eq!(w.episode_ops(42, 0), w.episode_ops(42, 0));
            assert_eq!(
                w.ops(42, 0, 40),
                w.episode_ops(42, 0)[..40],
                "a shorter stream is a prefix"
            );
            assert_eq!(w.input_hash(42), w.input_hash(42));
            assert_ne!(w.input_hash(42), w.input_hash(43), "{}", w.name());
        }
    }

    #[test]
    fn local_and_wire_lifecycles_execute_the_same_stream() {
        assert_eq!(
            Workload::LifecycleLocal.episode_ops(9, 1),
            Workload::LifecycleWire.episode_ops(9, 1)
        );
        assert_eq!(Workload::LifecycleLocal.input_hash(9), Workload::LifecycleWire.input_hash(9));
    }

    #[test]
    fn streams_have_the_stated_shape() {
        let uip0 = Workload::UipDurable.episode_ops(1, 0);
        let uip1 = Workload::UipDurable.episode_ops(1, 1);
        assert!(uip0.iter().all(|o| o.kind == OpKind::Update && o.file < BASE_FILES / 2));
        assert!(uip1.iter().all(|o| o.file >= BASE_FILES / 2 && o.file < BASE_FILES));

        let mix = Workload::ReadMix.episode_ops(1, 0);
        let updates = mix.iter().filter(|o| o.kind == OpKind::Update).count() as f64;
        let hot = mix.iter().filter(|o| o.file < HOT_FILES).count() as f64;
        let n = mix.len() as f64;
        assert!((updates / n - 0.10).abs() < 0.01, "update share {}", updates / n);
        // 80 % aimed at the hot set plus the uniform picks that land in it.
        assert!((hot / n - 0.806).abs() < 0.01, "hot share {}", hot / n);

        let life = Workload::LifecycleLocal.episode_ops(1, 0);
        for cycle in life.chunks_exact(4) {
            let kinds: Vec<OpKind> = cycle.iter().map(|o| o.kind).collect();
            assert_eq!(kinds, [OpKind::Link, OpKind::Update, OpKind::Read, OpKind::Unlink]);
            assert!(cycle.iter().all(|o| o.file == cycle[0].file && o.file < CHURN_FILES));
        }
    }
}
