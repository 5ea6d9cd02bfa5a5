//! Framework error types.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors raised by the Compadres framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompadresError {
    /// CDL/CCL XML was malformed.
    Xml(String),
    /// The CDL/CCL documents had the right XML shape but invalid content.
    Model(String),
    /// Composition validation failed (see [`crate::validate`]).
    Validation(String),
    /// A memory-model rule was violated at runtime.
    Memory(rtmem::RtmemError),
    /// A component class, instance, port or message type was not found.
    NotFound {
        /// What kind of entity was looked up (instance, port, ...).
        kind: &'static str,
        /// The name that was not found.
        name: String,
    },
    /// Attempt to obtain a message from an exhausted message pool.
    MessagePoolExhausted {
        /// Logical message type of the exhausted pool.
        message_type: String,
    },
    /// A message was sent whose Rust type does not match the port's
    /// declared message type.
    MessageTypeMismatch {
        /// The port involved.
        port: String,
        /// The expected message type.
        expected: String,
    },
    /// The component's in-port buffer was full and rejected the message.
    BufferFull {
        /// Target instance.
        instance: Arc<str>,
        /// Target in-port.
        port: Arc<str>,
    },
    /// The message was shed by per-priority-band admission control: the
    /// in-port buffer was over the band's watermark while capacity was
    /// still reserved for higher-priority traffic (see
    /// `rtplatform::fault::AdmissionPolicy`).
    Shed {
        /// Target instance.
        instance: Arc<str>,
        /// Target in-port.
        port: Arc<str>,
        /// Priority of the shed message.
        priority: u8,
    },
    /// The application (or a port) has been shut down.
    ShutDown,
    /// A component factory or handler factory was not registered.
    MissingFactory {
        /// The component class.
        class: String,
        /// The in-port, when a handler factory is missing.
        port: Option<String>,
    },
}

impl fmt::Display for CompadresError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompadresError::Xml(e) => write!(f, "invalid XML: {e}"),
            CompadresError::Model(e) => write!(f, "invalid document: {e}"),
            CompadresError::Validation(e) => write!(f, "composition invalid: {e}"),
            CompadresError::Memory(e) => write!(f, "memory model violation: {e}"),
            CompadresError::NotFound { kind, name } => write!(f, "{kind} {name:?} not found"),
            CompadresError::MessagePoolExhausted { message_type } => {
                write!(f, "message pool for type {message_type:?} is exhausted")
            }
            CompadresError::MessageTypeMismatch { port, expected } => {
                write!(
                    f,
                    "message type mismatch on port {port:?}: expected {expected}"
                )
            }
            CompadresError::BufferFull { instance, port } => {
                write!(f, "buffer of {instance}.{port} is full")
            }
            CompadresError::Shed {
                instance,
                port,
                priority,
            } => {
                write!(
                    f,
                    "message at priority {priority} shed by admission control at {instance}.{port}"
                )
            }
            CompadresError::ShutDown => write!(f, "application is shut down"),
            CompadresError::MissingFactory { class, port } => match port {
                Some(p) => write!(f, "no handler factory registered for {class}.{p}"),
                None => write!(f, "no component factory registered for class {class:?}"),
            },
        }
    }
}

impl Error for CompadresError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompadresError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rtmem::RtmemError> for CompadresError {
    fn from(e: rtmem::RtmemError) -> Self {
        CompadresError::Memory(e)
    }
}

impl From<rtxml::ParseXmlError> for CompadresError {
    fn from(e: rtxml::ParseXmlError) -> Self {
        CompadresError::Xml(e.to_string())
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CompadresError>;
