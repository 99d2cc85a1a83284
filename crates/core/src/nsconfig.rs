//! `NSconfig`: the neighbor-sampling configuration blob (paper Fig 11).
//!
//! The SmartSAGE driver encodes "key parameters of the sampling operation
//! — number of target nodes as well as their logical block address,
//! neighborhood node IDs to sample, and other metadata" into host memory;
//! the SSD firmware fetches it with one DMA and drives subgraph
//! generation from it. We implement the blob byte-exactly (little-endian,
//! versioned header) so the driver↔firmware contract is a real,
//! round-trip-tested serialization, and its size feeds the DMA timing.

use smartsage_graph::NodeId;

/// Magic number identifying an `NSconfig` blob ("NSCF").
pub const NSCONFIG_MAGIC: u32 = 0x4E53_4346;
/// Current encoding version.
pub const NSCONFIG_VERSION: u16 = 1;

/// Encoded bytes of one [`TargetDescriptor`].
const TARGET_BYTES: usize = 22;

/// Per-target descriptor: where the target's edge list lives and how
/// many neighbors to sample per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetDescriptor {
    /// The target node.
    pub node: NodeId,
    /// Logical block address of the start of the node's edge list.
    pub lba: u64,
    /// Byte offset within that block.
    pub offset_in_block: u16,
    /// The node's degree (lets firmware bound its reads).
    pub degree: u64,
}

/// The full sampling request for one (possibly coalesced) ISP command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsConfig {
    /// Random seed for in-storage position sampling.
    pub seed: u64,
    /// Per-hop fan-outs.
    pub fanouts: Vec<u16>,
    /// Target descriptors.
    pub targets: Vec<TargetDescriptor>,
}

/// Errors from [`NsConfig::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsConfigError {
    /// Blob shorter than its header or declared payload.
    Truncated,
    /// Magic number mismatch.
    BadMagic(u32),
    /// Unsupported version.
    BadVersion(u16),
}

impl std::fmt::Display for NsConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NsConfigError::Truncated => write!(f, "nsconfig blob is truncated"),
            NsConfigError::BadMagic(m) => write!(f, "bad nsconfig magic {m:#x}"),
            NsConfigError::BadVersion(v) => write!(f, "unsupported nsconfig version {v}"),
        }
    }
}

impl std::error::Error for NsConfigError {}

impl NsConfig {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        // header: magic(4) version(2) nfanouts(2) seed(8) ntargets(4)
        // fanouts: 2 each; targets: node(4) lba(8) off(2) degree(8)
        20 + self.fanouts.len() * 2 + self.targets.len() * TARGET_BYTES
    }

    /// Serializes to the little-endian wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&NSCONFIG_MAGIC.to_le_bytes());
        out.extend_from_slice(&NSCONFIG_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.fanouts.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.targets.len() as u32).to_le_bytes());
        for f in &self.fanouts {
            out.extend_from_slice(&f.to_le_bytes());
        }
        for t in &self.targets {
            out.extend_from_slice(&t.node.raw().to_le_bytes());
            out.extend_from_slice(&t.lba.to_le_bytes());
            out.extend_from_slice(&t.offset_in_block.to_le_bytes());
            out.extend_from_slice(&t.degree.to_le_bytes());
        }
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Parses a blob produced by [`NsConfig::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`NsConfigError`] on truncation, bad magic, or an
    /// unsupported version.
    pub fn decode(bytes: &[u8]) -> Result<NsConfig, NsConfigError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let magic = u32::from_le_bytes(cur.take::<4>()?);
        if magic != NSCONFIG_MAGIC {
            return Err(NsConfigError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(cur.take::<2>()?);
        if version != NSCONFIG_VERSION {
            return Err(NsConfigError::BadVersion(version));
        }
        let nfanouts = u16::from_le_bytes(cur.take::<2>()?) as usize;
        let seed = u64::from_le_bytes(cur.take::<8>()?);
        let ntargets = u32::from_le_bytes(cur.take::<4>()?) as usize;
        let mut fanouts = Vec::with_capacity(nfanouts);
        for _ in 0..nfanouts {
            fanouts.push(u16::from_le_bytes(cur.take::<2>()?));
        }
        // The count is the blob's word, not its size: reserve no more
        // descriptors than the bytes left can hold.
        let mut targets = Vec::with_capacity(ntargets.min(cur.remaining() / TARGET_BYTES));
        for _ in 0..ntargets {
            let node = NodeId::new(u32::from_le_bytes(cur.take::<4>()?));
            let lba = u64::from_le_bytes(cur.take::<8>()?);
            let offset_in_block = u16::from_le_bytes(cur.take::<2>()?);
            let degree = u64::from_le_bytes(cur.take::<8>()?);
            targets.push(TargetDescriptor {
                node,
                lba,
                offset_in_block,
                degree,
            });
        }
        Ok(NsConfig {
            seed,
            fanouts,
            targets,
        })
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], NsConfigError> {
        if self.pos + N > self.bytes.len() {
            return Err(NsConfigError::Truncated);
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NsConfig {
        NsConfig {
            seed: 0xDEAD_BEEF_1234_5678,
            fanouts: vec![25, 10],
            targets: (0..5)
                .map(|i| TargetDescriptor {
                    node: NodeId::new(i * 7),
                    lba: 1000 + i as u64 * 3,
                    offset_in_block: (i * 100) as u16,
                    degree: 50 + i as u64,
                })
                .collect(),
        }
    }

    #[test]
    fn round_trip() {
        let cfg = sample();
        let bytes = cfg.encode();
        assert_eq!(bytes.len(), cfg.encoded_len());
        let back = NsConfig::decode(&bytes).expect("decode");
        assert_eq!(back, cfg);
    }

    #[test]
    fn empty_config_round_trips() {
        let cfg = NsConfig {
            seed: 0,
            fanouts: vec![],
            targets: vec![],
        };
        assert_eq!(NsConfig::decode(&cfg.encode()).unwrap(), cfg);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        for cut in [0, 3, 19, bytes.len() - 1] {
            assert_eq!(
                NsConfig::decode(&bytes[..cut]).unwrap_err(),
                NsConfigError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            NsConfig::decode(&bytes).unwrap_err(),
            NsConfigError::BadMagic(_)
        ));
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert!(matches!(
            NsConfig::decode(&bytes).unwrap_err(),
            NsConfigError::BadVersion(99)
        ));
    }

    #[test]
    fn errors_display() {
        assert!(!format!("{}", NsConfigError::Truncated).is_empty());
        assert!(!format!("{}", NsConfigError::BadMagic(3)).is_empty());
        assert!(!format!("{}", NsConfigError::BadVersion(9)).is_empty());
    }
}
