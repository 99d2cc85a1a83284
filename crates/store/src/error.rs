//! Typed errors for store-file I/O.
//!
//! Every fallible store operation returns a [`StoreError`] — no store
//! implementation is allowed to `unwrap` an I/O result. Errors carry
//! enough context to be actionable: the file path, the expected and
//! observed sizes, the offending node id.

use smartsage_graph::NodeId;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// An error raised by a [`FeatureStore`](crate::FeatureStore).
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io {
        /// The file being operated on.
        path: PathBuf,
        /// What the store was doing when it failed.
        action: &'static str,
        /// The OS error.
        source: io::Error,
    },
    /// The store file's magic bytes are wrong — not the expected format.
    BadMagic {
        /// The file that was opened.
        path: PathBuf,
    },
    /// The store file's header fields are inconsistent.
    BadHeader {
        /// The file that was opened.
        path: PathBuf,
        /// What is wrong with it.
        reason: String,
    },
    /// The store file is shorter (or longer) than its header promises.
    Truncated {
        /// The file that was opened.
        path: PathBuf,
        /// The exact length the header implies.
        expected: u64,
        /// The length found on disk.
        actual: u64,
    },
    /// A registry open requested different store options than the
    /// already-open shared store for the same content key: handing out
    /// the existing store would silently run the caller's I/O
    /// accounting against a geometry (page size, cache capacity) it
    /// did not configure.
    OptionsConflict {
        /// The store file both callers want.
        path: PathBuf,
        /// The options this open requested.
        requested: crate::file::FileStoreOptions,
        /// The options the store is already open with.
        open: crate::file::FileStoreOptions,
    },
    /// A graph file's CSR content is internally inconsistent — offsets
    /// out of monotone order, an edge index past the end of the edge
    /// array, or a neighbor id past the node count. Raised at the read
    /// that discovers it, never as a panic or a partial batch.
    CorruptGraph {
        /// The graph file being read.
        path: PathBuf,
        /// What is wrong with it.
        reason: String,
    },
    /// A graph file and a feature file that are supposed to describe
    /// the same dataset disagree on the node count.
    NodeCountMismatch {
        /// The graph (topology) file.
        graph: PathBuf,
        /// Nodes the graph file holds.
        graph_nodes: usize,
        /// The feature file.
        features: PathBuf,
        /// Nodes the feature file holds.
        feature_nodes: usize,
    },
    /// A neighbor pick's position is not below its node's degree —
    /// a caller bug (a plan resolved against the wrong graph), kept
    /// distinct from [`StoreError::CorruptGraph`] so it is never
    /// misattributed to file corruption. Raised uniformly by every
    /// topology tier.
    PickOutOfRange {
        /// The node whose neighbor list was picked from.
        node: NodeId,
        /// The requested position.
        position: u64,
        /// The node's actual degree.
        degree: u64,
    },
    /// A gather requested a node the store does not hold.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes the store holds.
        num_nodes: usize,
    },
    /// An output buffer's length disagrees with `nodes.len() * dim`.
    BadBuffer {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        actual: usize,
    },
    /// The node ranges a routed topology is built over do not tile the
    /// node space: a range that does not continue from its
    /// predecessor (a gap or an overlap) or is inverted.
    ShardLayout {
        /// The shard file whose range is at fault.
        path: PathBuf,
        /// The shard's index in the partition.
        shard: usize,
        /// What is wrong with the layout.
        reason: String,
    },
    /// A shard file's on-disk geometry disagrees with its sibling
    /// shards or with the partition it is routed in (mismatched feature
    /// dim/classes, mismatched global node count).
    ShardGeometry {
        /// The offending shard file.
        path: PathBuf,
        /// The shard's index in the partition.
        shard: usize,
        /// What disagrees.
        reason: String,
    },
    /// The feature side and the graph side of a sharded dataset are
    /// partitioned differently — scatter/gather cannot route one plan
    /// over both.
    ShardCountMismatch {
        /// The first graph shard file (names the graph partition).
        graph: PathBuf,
        /// Graph shard count.
        graph_shards: usize,
        /// The first feature shard file (names the feature partition).
        features: PathBuf,
        /// Feature shard count.
        feature_shards: usize,
    },
}

impl StoreError {
    /// A `map_err` adapter: the OS error of doing `action` on `path`.
    pub(crate) fn io<'a>(
        path: &'a Path,
        action: &'static str,
    ) -> impl FnOnce(io::Error) -> StoreError + 'a {
        move |source| StoreError::Io {
            path: path.to_path_buf(),
            action,
            source,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                path,
                action,
                source,
            } => {
                write!(f, "store file '{}': {action}: {source}", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(
                    f,
                    "store file '{}': bad magic (not the expected SmartSAGE store format)",
                    path.display()
                )
            }
            StoreError::BadHeader { path, reason } => {
                write!(
                    f,
                    "store file '{}': invalid header: {reason}",
                    path.display()
                )
            }
            StoreError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "store file '{}' is truncated or corrupt: expected exactly \
                 {expected} bytes, found {actual}",
                path.display()
            ),
            StoreError::OptionsConflict {
                path,
                requested,
                open,
            } => {
                write!(
                    f,
                    "store file '{}' is already open with {open:?}; refusing to hand it \
                     out for a request with {requested:?}",
                    path.display()
                )
            }
            StoreError::CorruptGraph { path, reason } => {
                write!(f, "graph file '{}' is corrupt: {reason}", path.display())
            }
            StoreError::NodeCountMismatch {
                graph,
                graph_nodes,
                features,
                feature_nodes,
            } => {
                write!(
                    f,
                    "graph file '{}' holds {graph_nodes} nodes but feature file '{}' \
                     holds {feature_nodes}; refusing to sample a mismatched dataset",
                    graph.display(),
                    features.display()
                )
            }
            StoreError::PickOutOfRange {
                node,
                position,
                degree,
            } => {
                write!(
                    f,
                    "neighbor pick {position} at node {node:?} is out of range for \
                     degree {degree}"
                )
            }
            StoreError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node:?} out of range for a {num_nodes}-node store")
            }
            StoreError::BadBuffer { expected, actual } => {
                write!(
                    f,
                    "gather buffer holds {actual} elements, need exactly {expected}"
                )
            }
            StoreError::ShardLayout {
                path,
                shard,
                reason,
            } => {
                write!(
                    f,
                    "shard {shard} file '{}' breaks the shard layout: {reason}",
                    path.display()
                )
            }
            StoreError::ShardGeometry {
                path,
                shard,
                reason,
            } => {
                write!(
                    f,
                    "shard {shard} file '{}' has mismatched geometry: {reason}",
                    path.display()
                )
            }
            StoreError::ShardCountMismatch {
                graph,
                graph_shards,
                features,
                feature_shards,
            } => {
                write!(
                    f,
                    "graph partition '{}' has {graph_shards} shard(s) but feature \
                     partition '{}' has {feature_shards}; refusing to scatter one \
                     plan across mismatched partitions",
                    graph.display(),
                    features.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_message_names_file_and_expected_length() {
        let e = StoreError::Truncated {
            path: PathBuf::from("/tmp/feat.bin"),
            expected: 8192,
            actual: 100,
        };
        let msg = e.to_string();
        assert!(msg.contains("/tmp/feat.bin"), "{msg}");
        assert!(msg.contains("8192"), "{msg}");
        assert!(msg.contains("100"), "{msg}");
    }

    #[test]
    fn io_error_preserves_source() {
        let e = StoreError::Io {
            path: PathBuf::from("x"),
            action: "read page",
            source: io::Error::new(io::ErrorKind::NotFound, "gone"),
        };
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("read page"));
    }
}
