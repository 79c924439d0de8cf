//! AES-128 block cipher and CBC mode (FIPS-197), table-driven.
//!
//! The paper's IPsec Security Gateway "performs encryption of the incoming
//! packets through the AES-CBC 128-bit algorithm" (§V-G). On the authors'
//! testbed the cipher runs in NIC offload; here the gateway application
//! charges an offload-calibrated *cycle cost* for timing, but the bytes are
//! really transformed by this implementation so the encap/decap round-trip
//! is functionally verifiable — and the realtime runner pays for it, so the
//! rounds are the textbook optimisation of the textbook cipher.
//!
//! **The tables.** SubBytes, ShiftRows and MixColumns of one round act on
//! each state byte independently and combine by xor, so a round is sixteen
//! lookups: `TE[r][x]` is the column that byte `x` in row `r`
//! contributes (its S-box value times the MixColumns coefficients of that
//! row), ShiftRows is the choice of which column each lookup reads from,
//! and the round key is xored in as a word. `TD` is the same for the
//! inverse round, run over a decryption key schedule that has
//! InvMixColumns folded in (the "equivalent inverse cipher", FIPS-197
//! §5.3.5). Four 1 KiB tables a direction rather than one rotated at run
//! time: the rotation is on the critical path of CBC, which is one long
//! dependency chain.
//!
//! **Why `const`.** The tables are `static`s computed by the compiler from
//! `SBOX` and `xtime`: nothing to initialise, no first-use branch on
//! the packet path, no build script, and a mistake in them is a mistake in
//! ten lines that the tests compare against the byte-wise rounds for all
//! 256 inputs.
//!
//! No hardware intrinsics, no `unsafe`, and **not constant-time**: the
//! table and S-box indices are secret-dependent, so cache timing shows
//! them. This is a simulation substrate, not a production cryptography
//! library. The byte-wise FIPS-197 transcription this replaced survives
//! under `#[cfg(test)]` as the oracle the table rounds are checked against.

/// AES block size in bytes.
pub const BLOCK: usize = 16;

/// Forward S-box from FIPS-197 §5.1.1.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box from FIPS-197 §5.3.2.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Multiply by `x` in GF(2^8) modulo the AES polynomial.
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// `TE[r][x]`: what state byte `x` in row `r` of a column contributes to
/// that column after SubBytes and MixColumns, as a big-endian word (row 0
/// in the top byte). `TE[0][x]` is `(2·S[x], S[x], S[x], 3·S[x])` and row
/// `r`'s table is that word rotated right by `r` bytes.
static TE: [[u32; 256]; 4] = {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let column = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        let mut r = 0;
        while r < 4 {
            te[r][x] = column.rotate_right(8 * r as u32);
            r += 1;
        }
        x += 1;
    }
    te
};

/// `TD[r][x]`: the same for InvSubBytes and InvMixColumns;
/// `TD[0][x]` is `(14·S⁻¹[x], 9·S⁻¹[x], 13·S⁻¹[x], 11·S⁻¹[x])`.
static TD: [[u32; 256]; 4] = {
    let mut td = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = INV_SBOX[x];
        let s2 = xtime(s);
        let s4 = xtime(s2);
        let s8 = xtime(s4);
        let column = u32::from_be_bytes([s8 ^ s4 ^ s2, s8 ^ s, s8 ^ s4 ^ s, s8 ^ s2 ^ s]);
        let mut r = 0;
        while r < 4 {
            td[r][x] = column.rotate_right(8 * r as u32);
            r += 1;
        }
        x += 1;
    }
    td
};

/// The bytes of `w`, row 0 first, as table indices.
#[inline(always)]
fn rows(w: u32) -> [usize; 4] {
    w.to_be_bytes().map(usize::from)
}

/// The ten rounds of either direction over `keys`: nine table rounds and
/// the last, which has no MixColumns, through `sbox`. Row `r` of output
/// column `c` comes from input column `c + r·STEP` (mod 4): `STEP` is 1
/// for ShiftRows and 3 (−1 mod 4) for InvShiftRows.
#[inline(always)]
fn crypt<const STEP: usize>(
    block: &mut [u8; 16],
    keys: &[[u32; 4]; 11],
    tables: &[[u32; 256]; 4],
    sbox: &[u8; 256],
) {
    let mut s: [u32; 4] = core::array::from_fn(|c| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ]) ^ keys[0][c]
    });
    for key in &keys[1..10] {
        s = core::array::from_fn(|c| {
            tables[0][rows(s[c])[0]]
                ^ tables[1][rows(s[(c + STEP) % 4])[1]]
                ^ tables[2][rows(s[(c + 2 * STEP) % 4])[2]]
                ^ tables[3][rows(s[(c + 3 * STEP) % 4])[3]]
                ^ key[c]
        });
    }
    for c in 0..4 {
        let word = u32::from_be_bytes([
            sbox[rows(s[c])[0]],
            sbox[rows(s[(c + STEP) % 4])[1]],
            sbox[rows(s[(c + 2 * STEP) % 4])[2]],
            sbox[rows(s[(c + 3 * STEP) % 4])[3]],
        ]) ^ keys[10][c];
        block[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
    }
}

/// Expanded AES-128 key schedules: 11 round keys a direction, one
/// big-endian word per state column.
#[derive(Clone)]
pub struct Aes128 {
    enc_keys: [[u32; 4]; 11],
    /// The equivalent inverse cipher's schedule (FIPS-197 §5.3.5):
    /// `enc_keys` in reverse order with InvMixColumns applied to rounds
    /// 1–9, so decryption runs the same round shape over `TD`.
    dec_keys: [[u32; 4]; 11],
}

impl Aes128 {
    /// Expand a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for i in 0..4 {
            w[i] = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut rcon: u8 = 1;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                let rotated = rows(temp.rotate_left(8)).map(|b| SBOX[b]);
                temp = u32::from_be_bytes(rotated) ^ u32::from(rcon) << 24;
                rcon = xtime(rcon);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let enc_keys: [[u32; 4]; 11] =
            core::array::from_fn(|r| [w[4 * r], w[4 * r + 1], w[4 * r + 2], w[4 * r + 3]]);
        // InvMixColumns of a word: `TD` undoes the S-box first, so feed
        // it the substituted bytes.
        let inv_mix = |word: u32| {
            let b = rows(word).map(|b| usize::from(SBOX[b]));
            TD[0][b[0]] ^ TD[1][b[1]] ^ TD[2][b[2]] ^ TD[3][b[3]]
        };
        let dec_keys = core::array::from_fn(|r| match r {
            0 | 10 => enc_keys[10 - r],
            _ => enc_keys[10 - r].map(inv_mix),
        });
        Aes128 { enc_keys, dec_keys }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        crypt::<1>(block, &self.enc_keys, &TE, &SBOX);
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        crypt::<3>(block, &self.dec_keys, &TD, &INV_SBOX);
    }

    /// CBC-encrypt `data` in place. Length must be a multiple of 16
    /// (ESP handles padding before calling this).
    pub fn cbc_encrypt(&self, iv: &[u8; 16], data: &mut [u8]) {
        assert!(data.len().is_multiple_of(BLOCK), "CBC needs whole blocks");
        let mut prev = *iv;
        for chunk in data.chunks_exact_mut(BLOCK) {
            for i in 0..BLOCK {
                chunk[i] ^= prev[i];
            }
            let block: &mut [u8; 16] = chunk.try_into().unwrap();
            self.encrypt_block(block);
            prev = *block;
        }
    }

    /// CBC-decrypt `data` in place.
    pub fn cbc_decrypt(&self, iv: &[u8; 16], data: &mut [u8]) {
        assert!(data.len().is_multiple_of(BLOCK), "CBC needs whole blocks");
        let mut prev = *iv;
        for chunk in data.chunks_exact_mut(BLOCK) {
            let cipher: [u8; 16] = chunk.try_into().unwrap();
            let block: &mut [u8; 16] = chunk.try_into().unwrap();
            self.decrypt_block(block);
            for i in 0..BLOCK {
                chunk[i] ^= prev[i];
            }
            prev = cipher;
        }
    }
}

/// The byte-wise rounds as FIPS-197 writes them down: the reference the
/// table-driven cipher is tested against.
#[cfg(test)]
mod oracle {
    use super::{xtime, Aes128, INV_SBOX, SBOX};

    /// GF(2^8) multiply by Russian-peasant method.
    pub fn mul(a: u8, mut b: u8) -> u8 {
        let mut a = a;
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            a = xtime(a);
            b >>= 1;
        }
        acc
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u32; 4]) {
        for (c, word) in rk.iter().enumerate() {
            for (r, b) in word.to_be_bytes().into_iter().enumerate() {
                state[4 * c + r] ^= b;
            }
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // State is column-major: byte (row r, col c) at index 4c + r.
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * ((c + r) % 4) + r] = s[4 * c + r];
            }
        }
    }

    pub fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = mul(2, col[0]) ^ mul(3, col[1]) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ mul(2, col[1]) ^ mul(3, col[2]) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ mul(2, col[2]) ^ mul(3, col[3]);
            state[4 * c + 3] = mul(3, col[0]) ^ col[1] ^ col[2] ^ mul(2, col[3]);
        }
    }

    pub fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = mul(14, col[0]) ^ mul(11, col[1]) ^ mul(13, col[2]) ^ mul(9, col[3]);
            state[4 * c + 1] = mul(9, col[0]) ^ mul(14, col[1]) ^ mul(11, col[2]) ^ mul(13, col[3]);
            state[4 * c + 2] = mul(13, col[0]) ^ mul(9, col[1]) ^ mul(14, col[2]) ^ mul(11, col[3]);
            state[4 * c + 3] = mul(11, col[0]) ^ mul(13, col[1]) ^ mul(9, col[2]) ^ mul(14, col[3]);
        }
    }

    /// FIPS-197 §5.1 `Cipher` over `aes`'s encryption schedule.
    pub fn encrypt_block(aes: &Aes128, block: &mut [u8; 16]) {
        add_round_key(block, &aes.enc_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &aes.enc_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &aes.enc_keys[10]);
    }

    /// FIPS-197 §5.3 `InvCipher`, also over the *encryption* schedule:
    /// it checks `dec_keys` as well as the `TD` rounds.
    pub fn decrypt_block(aes: &Aes128, block: &mut [u8; 16]) {
        add_round_key(block, &aes.enc_keys[10]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for round in (1..10).rev() {
            add_round_key(block, &aes.enc_keys[round]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &aes.enc_keys[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{self, mul};
    use super::*;
    use proptest::prelude::*;

    fn hex<const N: usize>(s: &str) -> [u8; N] {
        assert_eq!(s.len(), 2 * N);
        core::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: key 2b7e151628aed2a6abf7158809cf4f3c,
        // plaintext 3243f6a8885a308d313198a2e0370734
        // -> ciphertext 3925841d02dc09fbdc118597196a0b32.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32
            ]
        );
        aes.decrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                0x07, 0x34
            ]
        );
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...ff.
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let mut block: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
    }

    #[test]
    fn nist_sp800_38a_cbc_vector() {
        // NIST SP 800-38A F.2.1 (CBC-AES128.Encrypt), first two blocks.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let iv: [u8; 16] = core::array::from_fn(|i| i as u8);
        let mut data = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51,
        ];
        let aes = Aes128::new(&key);
        aes.cbc_encrypt(&iv, &mut data);
        assert_eq!(
            &data[..16],
            &[
                0x76, 0x49, 0xab, 0xac, 0x81, 0x19, 0xb2, 0x46, 0xce, 0xe9, 0x8e, 0x9b, 0x12, 0xe9,
                0x19, 0x7d
            ]
        );
        assert_eq!(
            &data[16..],
            &[
                0x50, 0x86, 0xcb, 0x9b, 0x50, 0x72, 0x19, 0xee, 0x95, 0xdb, 0x11, 0x3a, 0x91, 0x76,
                0x78, 0xb2
            ]
        );
    }

    #[test]
    fn cbc_round_trip() {
        let key = [7u8; 16];
        let iv = [9u8; 16];
        let aes = Aes128::new(&key);
        let original: Vec<u8> = (0..64u8).collect();
        let mut data = original.clone();
        aes.cbc_encrypt(&iv, &mut data);
        assert_ne!(data, original);
        aes.cbc_decrypt(&iv, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn cbc_chains_blocks() {
        // Identical plaintext blocks must yield distinct ciphertext blocks.
        let aes = Aes128::new(&[1u8; 16]);
        let mut data = [0xAAu8; 48];
        aes.cbc_encrypt(&[0u8; 16], &mut data);
        assert_ne!(&data[0..16], &data[16..32]);
        assert_ne!(&data[16..32], &data[32..48]);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn cbc_rejects_partial_block() {
        let aes = Aes128::new(&[0u8; 16]);
        let mut data = [0u8; 15];
        aes.cbc_encrypt(&[0u8; 16], &mut data);
    }

    #[test]
    fn gf_multiplication_identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(0, a), 0);
            assert_eq!(mul(2, a), xtime(a));
        }
    }

    #[test]
    fn fips197_vectors_decrypt() {
        // Appendix B and Appendix C.1, from the ciphertext side.
        for (key, plain, cipher) in [
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "3243f6a8885a308d313198a2e0370734",
                "3925841d02dc09fbdc118597196a0b32",
            ),
            (
                "000102030405060708090a0b0c0d0e0f",
                "00112233445566778899aabbccddeeff",
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
        ] {
            let aes = Aes128::new(&hex(key));
            let mut block: [u8; 16] = hex(cipher);
            aes.decrypt_block(&mut block);
            assert_eq!(block, hex(plain));
            aes.encrypt_block(&mut block);
            assert_eq!(block, hex(cipher));
        }
    }

    #[test]
    fn nist_sp800_38a_cbc_all_four_blocks_both_ways() {
        // NIST SP 800-38A F.2.1 (CBC-AES128.Encrypt) and F.2.2 (Decrypt).
        let aes = Aes128::new(&hex("2b7e151628aed2a6abf7158809cf4f3c"));
        let iv = hex("000102030405060708090a0b0c0d0e0f");
        let plain: [u8; 64] = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let cipher: [u8; 64] = hex(concat!(
            "7649abac8119b246cee98e9b12e9197d",
            "5086cb9b507219ee95db113a917678b2",
            "73bed6b8e3c1743b7116e69e22229516",
            "3ff1caa1681fac09120eca307586e1a7",
        ));
        let mut data = plain;
        aes.cbc_encrypt(&iv, &mut data);
        assert_eq!(data, cipher);
        aes.cbc_decrypt(&iv, &mut data);
        assert_eq!(data, plain);
    }

    /// Every table entry against the byte-wise rounds: `TE[0][x]` is
    /// MixColumns of a column holding `S[x]` in row 0, `TD[0][x]` is
    /// InvMixColumns of one holding `S⁻¹[x]`, and row `r`'s table is row
    /// 0's rotated by `r` bytes — which is that byte placed in row `r`.
    #[test]
    fn tables_are_the_oracle_s_columns() {
        for x in 0..=255u8 {
            for r in 0..4 {
                let mut state = [0u8; 16];
                state[r] = SBOX[x as usize];
                oracle::mix_columns(&mut state);
                let column = u32::from_be_bytes([state[0], state[1], state[2], state[3]]);
                assert_eq!(TE[r][x as usize], column, "TE[{r}][{x:#04x}]");
                assert_eq!(
                    TE[r][x as usize],
                    TE[0][x as usize].rotate_right(8 * r as u32)
                );

                let mut state = [0u8; 16];
                state[r] = INV_SBOX[x as usize];
                oracle::inv_mix_columns(&mut state);
                let column = u32::from_be_bytes([state[0], state[1], state[2], state[3]]);
                assert_eq!(TD[r][x as usize], column, "TD[{r}][{x:#04x}]");
                assert_eq!(
                    TD[r][x as usize],
                    TD[0][x as usize].rotate_right(8 * r as u32)
                );
            }
        }
    }

    proptest! {
        /// The table rounds and the byte-wise rounds are the same
        /// function of key and block, in both directions.
        #[test]
        fn table_rounds_equal_the_byte_wise_oracle(
            key in any::<[u8; 16]>(),
            block in any::<[u8; 16]>()
        ) {
            let aes = Aes128::new(&key);
            let (mut fast, mut slow) = (block, block);
            aes.encrypt_block(&mut fast);
            oracle::encrypt_block(&aes, &mut slow);
            prop_assert_eq!(fast, slow);
            let (mut fast, mut slow) = (block, block);
            aes.decrypt_block(&mut fast);
            oracle::decrypt_block(&aes, &mut slow);
            prop_assert_eq!(fast, slow);
        }
    }
}
