//! The proof-system/curve pairs the workloads prove with, behind one
//! trait that adds what [`ProofSystem`] leaves to each backend: circuit
//! synthesis, key generation and proof decoding.

use gzkp_curves::bls12_381::Bls12_381;
use gzkp_curves::bn254::Bn254;
use gzkp_curves::pairing::PairingConfig;
use gzkp_gpu_sim::device::v100;
use gzkp_groth16::Groth16System;
use gzkp_msm::{GzkpMsm, PreprocessStore};
use gzkp_ntt::gpu::GzkpNtt;
use gzkp_plonk::{PlonkCircuit, PlonkProof, PlonkSystem};
use gzkp_proof_system::{Engines, ProofSystem, ProveReport};
use gzkp_telemetry::NoopSink;
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use std::sync::Arc;

/// Byte budget of every preprocessing-table store the benchmark creates
/// (the service default).
pub const STORE_BYTES: u64 = 256 << 20;

/// A proof system over one curve, as the benchmark drives it.
pub trait Backend: ProofSystem {
    /// `system-curve` label.
    const LABEL: &'static str;

    /// A satisfied synthetic circuit of about `constraints` constraints.
    fn synthesize(constraints: usize, rng: &mut StdRng) -> Self::Circuit;

    /// Key generation for `circuit`.
    fn keygen(circuit: &Self::Circuit, rng: &mut StdRng) -> (Self::ProvingKey, Self::VerifyingKey);

    /// Decodes proof bytes with the backend's codec; `false` when they
    /// are malformed.
    fn decode(proof: &[u8]) -> bool;
}

macro_rules! groth16_backend {
    ($curve:ty, $label:literal) => {
        impl Backend for Groth16System<$curve> {
            const LABEL: &'static str = $label;

            fn synthesize(constraints: usize, rng: &mut StdRng) -> Self::Circuit {
                synthetic_circuit::<<$curve as PairingConfig>::Fr, _>(constraints, rng)
            }

            fn keygen(
                circuit: &Self::Circuit,
                rng: &mut StdRng,
            ) -> (Self::ProvingKey, Self::VerifyingKey) {
                gzkp_groth16::setup::<$curve, _>(circuit, rng).expect("groth16 key generation")
            }

            fn decode(proof: &[u8]) -> bool {
                gzkp_groth16::proof_from_bytes::<$curve>(proof).is_some()
            }
        }
    };
}

macro_rules! plonk_backend {
    ($curve:ty, $label:literal) => {
        impl Backend for PlonkSystem<$curve> {
            const LABEL: &'static str = $label;

            fn synthesize(constraints: usize, rng: &mut StdRng) -> Self::Circuit {
                let cs = synthetic_circuit::<<$curve as PairingConfig>::Fr, _>(constraints, rng);
                PlonkCircuit::from_r1cs(&cs)
            }

            fn keygen(
                circuit: &Self::Circuit,
                rng: &mut StdRng,
            ) -> (Self::ProvingKey, Self::VerifyingKey) {
                gzkp_plonk::setup::<$curve, _>(circuit, rng).expect("plonk key generation")
            }

            fn decode(proof: &[u8]) -> bool {
                PlonkProof::<$curve>::from_bytes(proof).is_ok()
            }
        }
    };
}

groth16_backend!(Bn254, "groth16-bn254");
groth16_backend!(Bls12_381, "groth16-bls12-381");
plonk_backend!(Bn254, "plonk-bn254");
plonk_backend!(Bls12_381, "plonk-bls12-381");

/// Stock GZKP engines on a simulated V100, with MSM tables held in
/// `store` under the backend's cache tag.
pub struct StockEngines {
    /// The NTT engine.
    pub ntt: GzkpNtt,
    /// The MSM engine (used for both groups).
    pub msm: GzkpMsm,
}

impl StockEngines {
    /// Engines for backend `S` over `store`.
    pub fn new<S: Backend>(store: Arc<PreprocessStore>) -> Self {
        Self {
            ntt: GzkpNtt::auto::<<S::Pairing as PairingConfig>::Fr>(v100()),
            msm: GzkpMsm::new(v100())
                .with_store(store)
                .with_system_tag(S::KIND.cache_tag()),
        }
    }

    /// One proof through the two trait stages: the computation
    /// `PreparedWorkload::prove_direct` performs for a request.
    pub fn prove<S: Backend>(
        &self,
        circuit: &S::Circuit,
        pk: &S::ProvingKey,
        seed: u64,
    ) -> (Vec<u8>, ProveReport) {
        let engines = Engines::<S::Pairing> {
            ntt: &self.ntt,
            msm_g1: &self.msm,
            msm_g2: &self.msm,
        };
        let poly = S::prove_poly(circuit, pk, &self.ntt, &NoopSink).expect("poly stage");
        S::prove_msm(pk, &engines, poly, seed, &NoopSink).expect("msm stage")
    }
}

/// SplitMix64: the per-request seed derivation (a pure function of the
/// workload seed and the request index).
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
