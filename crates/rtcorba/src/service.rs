//! Servants and the object registry — the request-processing core shared
//! by both ORBs.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use rtplatform::sync::RwLock;

use crate::giop::{ReplyStatus, ReplyView, RequestView};

/// A CORBA-style servant: invoked by operation name with marshalled
/// arguments, returning a marshalled result.
pub trait Servant: Send + Sync {
    /// Handles one invocation.
    ///
    /// # Errors
    ///
    /// A `String` is marshalled back to the client as a system exception.
    fn invoke(&self, operation: &str, args: &[u8]) -> Result<Vec<u8>, String>;
}

/// The echo servant used by the paper-style round-trip benchmarks:
/// `echo` returns its argument bytes unchanged.
#[derive(Debug, Default, Clone, Copy)]
pub struct EchoServant;

impl Servant for EchoServant {
    fn invoke(&self, operation: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        match operation {
            "echo" => Ok(args.to_vec()),
            "reverse" => {
                let mut v = args.to_vec();
                v.reverse();
                Ok(v)
            }
            other => Err(format!("unknown operation {other:?}")),
        }
    }
}

/// Maps object keys to servants (the POA's active object map).
#[derive(Default)]
pub struct ObjectRegistry {
    map: RwLock<HashMap<Vec<u8>, Arc<dyn Servant>>>,
}

impl std::fmt::Debug for ObjectRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjectRegistry({} objects)", self.map.read().len())
    }
}

impl ObjectRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry pre-populated with an [`EchoServant`] under the
    /// key `b"echo"` — the benchmark configuration.
    pub fn with_echo() -> Arc<Self> {
        let reg = ObjectRegistry::new();
        reg.register(b"echo".to_vec(), Arc::new(EchoServant));
        Arc::new(reg)
    }

    /// Registers (or replaces) a servant under `key`.
    pub fn register(&self, key: Vec<u8>, servant: Arc<dyn Servant>) {
        self.map.write().insert(key, servant);
    }

    /// Removes a servant.
    pub fn unregister(&self, key: &[u8]) -> bool {
        self.map.write().remove(key).is_some()
    }

    /// Looks up a servant.
    pub fn lookup(&self, key: &[u8]) -> Option<Arc<dyn Servant>> {
        self.map.read().get(key).cloned()
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Full request-processing step: locates the servant, invokes it and
    /// builds the reply (including exception replies). The key,
    /// operation and body are used where they lie in the frame's
    /// segments, and so are the request's service contexts, echoed into
    /// every reply so tracing clients can correlate even exception
    /// paths: the reply borrows them from the request frame.
    pub fn dispatch_view<'a>(&self, req: &RequestView<'a>) -> ReplyView<'a> {
        let (status, body) = match self.lookup(&req.object_key) {
            None => (ReplyStatus::ObjectNotExist, Vec::new()),
            Some(servant) => match servant.invoke(&req.operation, &req.body) {
                Ok(body) => (ReplyStatus::NoException, body),
                Err(msg) => (ReplyStatus::SystemException, msg.into_bytes()),
            },
        };
        ReplyView {
            request_id: req.request_id,
            status,
            body: Cow::Owned(body),
            service_context: req.service_context.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::Endian;
    use crate::giop::{decode_view, encode_request_chain, MessageView, ServiceContexts};
    use rtplatform::bufchain::SegPool;

    fn request<'a>(key: &'a [u8], op: &'a str, body: &'a [u8]) -> RequestView<'a> {
        RequestView {
            request_id: 9,
            response_expected: true,
            object_key: Cow::Borrowed(key),
            operation: Cow::Borrowed(op),
            body: Cow::Borrowed(body),
            service_context: ServiceContexts::default(),
        }
    }

    #[test]
    fn dispatch_echoes_service_context() {
        let reg = ObjectRegistry::with_echo();
        let pool = SegPool::new(4, 256);
        // Normal and exception replies both echo the request's contexts.
        for key in [&b"echo"[..], b"nope"] {
            let contexts: [(u32, &[u8]); 2] = [(0x5452_4143, &[1, 2, 3]), (7, &[9])];
            let frame =
                encode_request_chain(9, true, key, "echo", &[1], &contexts, Endian::Big, &pool);
            let parts = frame.slices();
            let Ok(MessageView::Request(req)) = decode_view(&parts) else {
                panic!("a request frame decodes to a request");
            };
            assert_eq!(req.service_context.len(), 2);
            let reply = reg.dispatch_view(&req).encode_chain(Endian::Little, &pool);
            let parts = reply.slices();
            let Ok(MessageView::Reply(back)) = decode_view(&parts) else {
                panic!("a reply frame decodes to a reply");
            };
            assert_eq!(
                back.service_context.to_vec(),
                vec![(0x5452_4143, vec![1, 2, 3]), (7, vec![9])],
                "{key:?}"
            );
        }
    }

    #[test]
    fn echo_servant_operations() {
        let s = EchoServant;
        assert_eq!(s.invoke("echo", &[1, 2, 3]).unwrap(), vec![1, 2, 3]);
        assert_eq!(s.invoke("reverse", &[1, 2, 3]).unwrap(), vec![3, 2, 1]);
        assert!(s.invoke("bogus", &[]).is_err());
    }

    #[test]
    fn dispatch_routes_to_servant() {
        let reg = ObjectRegistry::with_echo();
        let reply = reg.dispatch_view(&request(b"echo", "echo", &[7, 7]));
        assert_eq!(reply.status, ReplyStatus::NoException);
        assert_eq!(&reply.body[..], &[7, 7]);
        assert_eq!(reply.request_id, 9);
    }

    #[test]
    fn dispatch_unknown_object() {
        let reg = ObjectRegistry::with_echo();
        let reply = reg.dispatch_view(&request(b"nope", "echo", &[]));
        assert_eq!(reply.status, ReplyStatus::ObjectNotExist);
    }

    #[test]
    fn dispatch_servant_exception() {
        let reg = ObjectRegistry::with_echo();
        let reply = reg.dispatch_view(&request(b"echo", "explode", &[]));
        assert_eq!(reply.status, ReplyStatus::SystemException);
        assert!(String::from_utf8_lossy(&reply.body).contains("unknown operation"));
    }

    #[test]
    fn register_unregister() {
        let reg = ObjectRegistry::new();
        assert!(reg.is_empty());
        reg.register(b"x".to_vec(), Arc::new(EchoServant));
        assert_eq!(reg.len(), 1);
        assert!(reg.lookup(b"x").is_some());
        assert!(reg.unregister(b"x"));
        assert!(!reg.unregister(b"x"));
        assert!(reg.is_empty());
    }
}

/// A servant that counts invocations — used by oneway tests and examples.
#[derive(Debug, Default)]
pub struct CountingServant {
    count: std::sync::atomic::AtomicU64,
}

impl CountingServant {
    /// Invocations observed so far.
    pub fn count(&self) -> u64 {
        self.count.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl Servant for CountingServant {
    fn invoke(&self, _operation: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        let n = self.count.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
        let _ = args;
        Ok(n.to_be_bytes().to_vec())
    }
}
