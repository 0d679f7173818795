//! Error types shared by every mechanism in the crate.

use std::fmt;

/// The I/O condition behind a transport or storage [`LdpError`].
///
/// `std::io::Error` is neither `Clone` nor `PartialEq`, which every
/// consumer of [`LdpError`] relies on, so the frame and durability layers
/// capture the parts that matter — the [`std::io::ErrorKind`] and the
/// rendered message — into this owned, comparable cause. It implements
/// [`std::error::Error`], and the I/O-backed variants expose it through
/// [`std::error::Error::source`], so error-reporting crates walk the chain
/// exactly as they would with the original `io::Error`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoFault {
    /// Kind of the underlying `std::io::Error`.
    pub kind: std::io::ErrorKind,
    /// The underlying error rendered to text.
    pub message: String,
}

impl IoFault {
    /// Captures the comparable parts of an `std::io::Error`.
    pub fn from_io(e: &std::io::Error) -> Self {
        IoFault {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for IoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

impl std::error::Error for IoFault {}

/// Errors returned by LDP mechanisms and their constructors.
///
/// All constructors validate their parameters eagerly so that perturbation
/// paths (which run once per user, potentially millions of times) only need
/// cheap domain checks.
#[derive(Debug, Clone, PartialEq)]
pub enum LdpError {
    /// The privacy budget must be a finite, strictly positive number.
    InvalidEpsilon {
        /// The rejected value.
        value: f64,
    },
    /// A numeric input fell outside the normalized domain `[lo, hi]`.
    OutOfDomain {
        /// The rejected value (may be NaN).
        value: f64,
        /// Lower end of the accepted domain.
        lo: f64,
        /// Upper end of the accepted domain.
        hi: f64,
    },
    /// A categorical input was not in `{0, 1, …, k-1}`.
    InvalidCategory {
        /// The rejected category index.
        value: u32,
        /// Domain size of the attribute.
        k: u32,
    },
    /// A tuple had the wrong number of attributes.
    DimensionMismatch {
        /// Dimensionality the mechanism was constructed for.
        expected: usize,
        /// Dimensionality of the offending input.
        actual: usize,
    },
    /// A structural parameter (dimension, domain size, sample size, …) was
    /// rejected by a constructor.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable explanation.
        message: String,
    },
    /// Two aggregation states (or an oracle and an aggregation state)
    /// disagree on the affine debiasing pair `(p, q)` — e.g. reports
    /// produced at different ε fed into one accumulator, or a merge of
    /// accumulators from different sessions. Combining them would silently
    /// bias every estimate, so it is rejected with both pairs attached.
    DebiasMismatch {
        /// The `(p, q)` pair already absorbed.
        expected: crate::mechanism::DebiasParams,
        /// The offending `(p, q)` pair.
        actual: crate::mechanism::DebiasParams,
    },
    /// An aggregation was attempted over zero reports.
    EmptyInput(&'static str),
    /// A wire frame (or the message inside it) could not be decoded: the
    /// stream was truncated mid-frame, the declared payload length exceeded
    /// the transport cap, the frame checksum disagreed with the payload, or
    /// the payload failed to parse as the message its kind byte promised.
    /// The message pinpoints which; aggregate state is never touched by a
    /// frame that raises this.
    MalformedFrame {
        /// Human-readable explanation of the framing violation.
        message: String,
    },
    /// The privacy-budget ledger rejected a second report from the same
    /// user within one epoch. Admitting it would double-spend the user's
    /// per-epoch budget, so the report is dropped and counted instead.
    DuplicateReport {
        /// Keyed hash of the offending user id (not the raw id, though
        /// the ledger key inverts it).
        user: u64,
        /// Epoch in which the duplicate arrived.
        epoch: u64,
    },
    /// A transport operation did not complete in time
    /// (`io::ErrorKind::TimedOut` / `WouldBlock` at the frame layer).
    /// Retryable: nothing about the stream's framing is known to be lost,
    /// but the caller cannot tell whether the far side acted, so any retry
    /// must be idempotent (the budget ledger makes report resubmission so).
    Timeout {
        /// The frame operation that timed out (`"read"` / `"write"` /
        /// `"connect"`).
        op: &'static str,
        /// The captured I/O condition (also the
        /// [`source`](std::error::Error::source)).
        cause: IoFault,
    },
    /// A bounded transport queue was full, so the message was shed before
    /// touching any service state. Retryable after backoff — shedding is
    /// how the server protects itself, not a verdict on the message.
    Overloaded {
        /// Capacity of the queue that shed the message; `0` when the far
        /// end reported overload without disclosing its capacity.
        capacity: usize,
    },
    /// The peer went away mid-stream (connection reset/aborted, broken
    /// pipe, or EOF where bytes were owed). Unacknowledged messages are in
    /// an unknown state; reconnect and resend them idempotently.
    ConnectionLost {
        /// The frame operation that observed the loss.
        op: &'static str,
        /// The captured I/O condition (also the
        /// [`source`](std::error::Error::source)).
        cause: IoFault,
    },
    /// A write-ahead-log record *before the tail* failed its integrity
    /// check: records up to `offset` replayed cleanly, the record starting
    /// at `offset` is provably corrupt, and durable bytes follow it — so
    /// this is disk corruption or tampering, not a torn final write.
    /// Recovery refuses to guess past it (mirroring how a corrupt stream
    /// frame poisons only its own payload but a corrupt *length* field
    /// desyncs the reader). A corrupt or truncated record at the very end
    /// of the log is NOT this error: that is the expected signature of a
    /// crash mid-append, and recovery truncates it away silently.
    WalCorrupt {
        /// Byte offset (from the start of the log file) of the corrupt
        /// record's frame header.
        offset: u64,
        /// Human-readable description of the integrity violation.
        message: String,
    },
    /// A `Hello`, log or checkpoint was written in a format version this
    /// build does not read (see [`crate::frame::FORMAT_VERSION`]). Nothing
    /// was interpreted past the version, and a durable file that raises
    /// it is left exactly as it was: it is not damage, and no torn tail is
    /// cut off it.
    UnsupportedVersion {
        /// The version the bytes declare (`1` for a file written before
        /// versions were recorded, recognised by its checksum).
        found: u16,
        /// The one version this build reads and writes.
        supported: u16,
    },
    /// The durability layer could not read or write its files (a log or
    /// checkpoint I/O failure, or a simulated process kill). Nothing about
    /// the message being handled was wrong: the server answers it
    /// `Overloaded`, and the budget ledger keeps the client's retry
    /// at-most-once.
    Storage {
        /// The durable operation that failed (`"wal_append"`,
        /// `"wal_fsync"`, `"checkpoint_commit"`, …; `"injected_crash"` for
        /// a tripped crash schedule).
        op: &'static str,
        /// The captured I/O condition (also the
        /// [`source`](std::error::Error::source)).
        cause: IoFault,
    },
}

impl fmt::Display for LdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdpError::InvalidEpsilon { value } => {
                write!(f, "privacy budget must be finite and > 0, got {value}")
            }
            LdpError::OutOfDomain { value, lo, hi } => {
                write!(f, "input {value} outside the domain [{lo}, {hi}]")
            }
            LdpError::InvalidCategory { value, k } => {
                write!(
                    f,
                    "category {value} outside the domain {{0, …, {}}}",
                    k.saturating_sub(1)
                )
            }
            LdpError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "expected a {expected}-dimensional tuple, got {actual} attributes"
                )
            }
            LdpError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            LdpError::DebiasMismatch { expected, actual } => {
                write!(
                    f,
                    "cannot combine aggregates debiased with (p={}, q={}) and (p={}, q={})",
                    expected.p, expected.q, actual.p, actual.q
                )
            }
            LdpError::EmptyInput(what) => write!(f, "cannot aggregate zero {what}"),
            LdpError::MalformedFrame { message } => {
                write!(f, "malformed wire frame: {message}")
            }
            LdpError::DuplicateReport { user, epoch } => {
                write!(
                    f,
                    "duplicate report from user {user:#018x} in epoch {epoch}: \
                     per-epoch privacy budget already spent"
                )
            }
            LdpError::Timeout { op, cause } => {
                write!(f, "transport {op} timed out ({cause})")
            }
            LdpError::Overloaded { capacity } => {
                if *capacity > 0 {
                    write!(
                        f,
                        "transport overloaded: bounded queue at capacity {capacity}; \
                         retry after backoff"
                    )
                } else {
                    write!(f, "transport overloaded; retry after backoff")
                }
            }
            LdpError::ConnectionLost { op, cause } => {
                write!(f, "connection lost during {op} ({cause})")
            }
            LdpError::WalCorrupt { offset, message } => {
                write!(
                    f,
                    "write-ahead log corrupt at byte offset {offset}: {message}"
                )
            }
            LdpError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "format version {found} is not supported (this build reads version {supported})"
                )
            }
            LdpError::Storage { op, cause } => {
                write!(f, "durable storage failed during {op} ({cause})")
            }
        }
    }
}

impl std::error::Error for LdpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LdpError::Timeout { cause, .. }
            | LdpError::ConnectionLost { cause, .. }
            | LdpError::Storage { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LdpError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LdpError::InvalidEpsilon { value: -1.0 };
        assert!(e.to_string().contains("-1"));

        let e = LdpError::OutOfDomain {
            value: 2.0,
            lo: -1.0,
            hi: 1.0,
        };
        assert!(e.to_string().contains("[-1, 1]"));

        let e = LdpError::InvalidCategory { value: 7, k: 5 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('4'));

        let e = LdpError::DimensionMismatch {
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));

        let e = LdpError::InvalidParameter {
            name: "d",
            message: "must be positive".into(),
        };
        assert!(e.to_string().contains("`d`"));

        let e = LdpError::EmptyInput("reports");
        assert!(e.to_string().contains("reports"));

        let e = LdpError::DebiasMismatch {
            expected: crate::mechanism::DebiasParams { p: 0.5, q: 0.25 },
            actual: crate::mechanism::DebiasParams { p: 0.5, q: 0.125 },
        };
        let msg = e.to_string();
        assert!(msg.contains("0.25") && msg.contains("0.125"), "{msg}");

        let e = LdpError::MalformedFrame {
            message: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("checksum mismatch"));

        let e = LdpError::DuplicateReport {
            user: 0xDEAD_BEEF,
            epoch: 3,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("0x00000000deadbeef") && msg.contains("epoch 3"),
            "{msg}"
        );

        let e = LdpError::WalCorrupt {
            offset: 1337,
            message: "checksum mismatch".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("1337") && msg.contains("checksum mismatch"),
            "{msg}"
        );
        assert!(std::error::Error::source(&e).is_none());

        let e = LdpError::UnsupportedVersion {
            found: 1,
            supported: 2,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("version 1") && msg.contains("version 2"),
            "{msg}"
        );
    }

    #[test]
    fn transport_variants_display_and_source() {
        let cause = IoFault {
            kind: std::io::ErrorKind::TimedOut,
            message: "deadline elapsed".into(),
        };
        let e = LdpError::Timeout {
            op: "read",
            cause: cause.clone(),
        };
        assert!(e.to_string().contains("read"), "{e}");
        assert!(e.to_string().contains("deadline elapsed"), "{e}");
        let src = std::error::Error::source(&e).expect("io-backed variant has a source");
        assert_eq!(src.to_string(), cause.to_string());

        let e = LdpError::ConnectionLost {
            op: "write",
            cause: IoFault {
                kind: std::io::ErrorKind::BrokenPipe,
                message: "peer closed".into(),
            },
        };
        assert!(e.to_string().contains("write"), "{e}");
        assert!(std::error::Error::source(&e).is_some());

        let e = LdpError::Storage {
            op: "wal_fsync",
            cause: IoFault {
                kind: std::io::ErrorKind::StorageFull,
                message: "no space left on device".into(),
            },
        };
        assert!(e.to_string().contains("wal_fsync"), "{e}");
        assert!(e.to_string().contains("no space left"), "{e}");
        let src = std::error::Error::source(&e).expect("storage variant has a source");
        assert!(src.to_string().contains("StorageFull"), "{src}");

        let e = LdpError::Overloaded { capacity: 128 };
        assert!(e.to_string().contains("128"), "{e}");
        assert!(std::error::Error::source(&e).is_none());
        let e = LdpError::Overloaded { capacity: 0 };
        assert!(e.to_string().contains("retry after backoff"), "{e}");

        // Variants without an I/O cause have no source.
        assert!(std::error::Error::source(&LdpError::EmptyInput("x")).is_none());
    }

    #[test]
    fn io_fault_captures_kind_and_message() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "mid-frame reset");
        let fault = IoFault::from_io(&io);
        assert_eq!(fault.kind, std::io::ErrorKind::ConnectionReset);
        assert!(fault.message.contains("mid-frame reset"));
        // Comparable + cloneable, unlike std::io::Error itself.
        assert_eq!(fault.clone(), fault);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LdpError>();
    }

    #[test]
    fn invalid_category_with_zero_k_does_not_underflow() {
        let e = LdpError::InvalidCategory { value: 0, k: 0 };
        // Must not panic; the message uses saturating_sub.
        assert!(e.to_string().contains('0'));
    }
}
