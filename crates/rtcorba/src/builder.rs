//! Construction API for both ORBs.
//!
//! [`ServerBuilder`] and [`ClientBuilder`] have two terminal methods
//! each: `serve()` / `connect()` produce the Compadres
//! (component-assembled) ORB, `serve_zen()` / `connect_zen()` the
//! hand-coded ZenOrb comparator. Each server ORB has exactly one I/O
//! model: the Compadres server runs on the event-driven
//! [`reactor`](crate::reactor), sized by [`ServerBuilder::reactor`];
//! ZenOrb is thread-per-connection, as the paper's RTZen comparator is.
//!
//! ```
//! use rtcorba::{ClientBuilder, ServerBuilder};
//! use rtcorba::service::ObjectRegistry;
//!
//! let server = ServerBuilder::new(ObjectRegistry::with_echo()).serve()?;
//! let client = ClientBuilder::new().connect(server.addr().unwrap())?;
//! assert_eq!(client.invoke(b"echo", "echo", &[1, 2])?, vec![1, 2]);
//! # server.shutdown();
//! # Ok::<(), rtcorba::OrbError>(())
//! ```

use std::net::SocketAddr;
use std::sync::Arc;

use rtplatform::fault::FaultPolicy;

use crate::corb::{CompadresClient, CompadresServer};
use crate::reactor::ReactorConfig;
use crate::service::ObjectRegistry;
use crate::transport::Connection;
use crate::zen::{ZenClient, ZenServer};
use crate::OrbError;

/// Builds a server ORB on `127.0.0.1:0` — either the component-assembled
/// Compadres ORB ([`serve`](ServerBuilder::serve)) or the hand-coded
/// ZenOrb comparator ([`serve_zen`](ServerBuilder::serve_zen)).
#[derive(Debug)]
pub struct ServerBuilder {
    registry: Arc<ObjectRegistry>,
    reactor: ReactorConfig,
}

impl ServerBuilder {
    /// Starts a builder serving `registry`.
    pub fn new(registry: Arc<ObjectRegistry>) -> ServerBuilder {
        ServerBuilder {
            registry,
            reactor: ReactorConfig::default(),
        }
    }

    /// Sizes the Compadres server's reactor (worker pool, per-connection
    /// inbox, frame and read limits). ZenOrb has no reactor and ignores
    /// it.
    pub fn reactor(mut self, cfg: ReactorConfig) -> ServerBuilder {
        self.reactor = cfg;
        self
    }

    /// Builds and starts the component-assembled Compadres ORB server
    /// on the event-driven reactor transport.
    ///
    /// # Errors
    ///
    /// Bind, composition or memory failures.
    pub fn serve(self) -> Result<CompadresServer, OrbError> {
        CompadresServer::serve(self.registry, self.reactor)
    }

    /// Builds and starts the hand-coded ZenOrb comparator server
    /// (thread per connection).
    ///
    /// # Errors
    ///
    /// Bind or memory-architecture failures.
    pub fn serve_zen(self) -> Result<ZenServer, OrbError> {
        ZenServer::serve(self.registry)
    }
}

/// Builds a client ORB — Compadres ([`connect`](ClientBuilder::connect))
/// or ZenOrb ([`connect_zen`](ClientBuilder::connect_zen)) — optionally
/// under a [`FaultPolicy`] whose connect/send/recv deadlines bound every
/// later invocation.
#[derive(Debug, Default)]
pub struct ClientBuilder {
    policy: Option<FaultPolicy>,
}

impl ClientBuilder {
    /// Starts a builder with no fault policy (blocking I/O, no
    /// deadlines).
    pub fn new() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Arms connect/send/recv deadlines from `policy` on the connection,
    /// so a silent peer surfaces as a deadline miss instead of a wedged
    /// real-time thread.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> ClientBuilder {
        self.policy = Some(policy);
        self
    }

    /// Connects a Compadres client ORB over TCP.
    ///
    /// # Errors
    ///
    /// Connection, composition or memory failures.
    pub fn connect(self, addr: SocketAddr) -> Result<CompadresClient, OrbError> {
        match &self.policy {
            Some(policy) => CompadresClient::tcp_with(addr, policy),
            None => CompadresClient::tcp(addr),
        }
    }

    /// Builds a Compadres client ORB over an established connection
    /// (e.g. a loopback end or a chaos-wrapped conn).
    ///
    /// # Errors
    ///
    /// Composition or memory failures.
    pub fn over(self, conn: Arc<dyn Connection>) -> Result<CompadresClient, OrbError> {
        match &self.policy {
            Some(policy) => CompadresClient::from_conn_with(conn, policy),
            None => CompadresClient::from_conn(conn),
        }
    }

    /// Connects a ZenOrb client over TCP.
    ///
    /// # Errors
    ///
    /// Connection or memory-architecture failures.
    pub fn connect_zen(self, addr: SocketAddr) -> Result<ZenClient, OrbError> {
        match &self.policy {
            Some(policy) => ZenClient::tcp_with(addr, policy),
            None => ZenClient::tcp(addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TcpConn;

    #[test]
    fn either_client_talks_to_either_server() {
        // `over` takes any `Connection`: here a raw TCP conn to a Zen
        // server; `connect_zen` dials the Compadres server itself.
        let zen = ServerBuilder::new(ObjectRegistry::with_echo())
            .serve_zen()
            .unwrap();
        let conn = Arc::new(TcpConn::connect(zen.addr().unwrap()).unwrap());
        let client = ClientBuilder::new().over(conn).unwrap();
        assert_eq!(client.invoke(b"echo", "echo", &[7, 7]).unwrap(), vec![7, 7]);

        let corb = ServerBuilder::new(ObjectRegistry::with_echo())
            .serve()
            .unwrap();
        let client = ClientBuilder::new()
            .connect_zen(corb.addr().unwrap())
            .unwrap();
        assert_eq!(client.invoke(b"echo", "echo", &[9]).unwrap(), vec![9]);
    }
}
