//! A small deterministic generator for the benchmark's own choices (plan
//! constants, evidence, instance lists). The program's inputs come from
//! `uprob-datagen`, seeded from the same `--seed`.

/// SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator for `seed` and a named purpose, so that independent
    /// streams drawn from one seed never share values.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for byte in stream.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut rng = Rng { state };
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// A value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A derived seed, for handing to a generator that takes one.
    pub fn seed(&mut self) -> u64 {
        self.next_u64()
    }
}
