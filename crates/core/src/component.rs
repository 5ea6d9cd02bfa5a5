//! Component and message-handler traits.
//!
//! These are the Rust analogs of the skeleton classes the Compadres
//! compiler generates from a CDL file (paper §2.1): a component class with
//! a `start()` method, and one message-handler class per in-port with a
//! `process()` method.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::error::{CompadresError, Result};
use crate::message::Message;
use crate::runtime::HandlerCtx;

/// A Compadres component implementation.
///
/// Immortal components are constructed once at [`crate::App::start`];
/// scoped components are constructed at every activation (when the SMM
/// materializes them to receive a message) and dropped at deactivation,
/// mirroring the paper's component lifecycle.
pub trait Component: Send {
    /// Called once after the component is created in its memory area.
    /// The paper's generated `start()` is empty; implementations typically
    /// initialize state or send trigger messages.
    ///
    /// # Errors
    ///
    /// Errors are recorded in the application stats and do not tear the
    /// application down.
    fn start(&mut self, ctx: &mut HandlerCtx<'_>) -> Result<()> {
        let _ = ctx;
        Ok(())
    }

    /// Called when the component is deactivated (scope reclaimed) or the
    /// application shuts down.
    fn stop(&mut self) {}
}

/// A component with no behavior of its own — used for components whose
/// logic lives entirely in message handlers.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullComponent;

impl Component for NullComponent {}

/// The handler associated with an in-port: called once per incoming
/// message, at the message's priority, inside the component's memory area.
pub trait MessageHandler<M: Message>: Send {
    /// Processes one message. The message object is returned to its pool
    /// after this returns (paper §2.2).
    ///
    /// # Errors
    ///
    /// Errors are counted in the application stats; they do not stop the
    /// port.
    fn process(&mut self, msg: &mut M, ctx: &mut HandlerCtx<'_>) -> Result<()>;
}

impl<M: Message, F> MessageHandler<M> for F
where
    F: FnMut(&mut M, &mut HandlerCtx<'_>) -> Result<()> + Send,
{
    fn process(&mut self, msg: &mut M, ctx: &mut HandlerCtx<'_>) -> Result<()> {
        self(msg, ctx)
    }
}

/// Object-safe handler used internally by ports.
pub(crate) trait ErasedHandler: Send {
    fn process_any(&mut self, msg: &mut (dyn Any + Send), ctx: &mut HandlerCtx<'_>) -> Result<()>;
}

/// Builds a component object at every activation of an instance.
pub(crate) type ComponentFactory = Arc<dyn Fn() -> Box<dyn Component> + Send + Sync>;
/// Builds an in-port's handler at every activation of its instance.
pub(crate) type HandlerFactory = Arc<dyn Fn() -> Box<dyn ErasedHandler> + Send + Sync>;

pub(crate) struct TypedHandler<M: Message, H: MessageHandler<M>> {
    handler: H,
    port: Arc<str>,
    expected: Arc<str>,
    _marker: PhantomData<fn(&mut M)>,
}

impl<M: Message, H: MessageHandler<M>> TypedHandler<M, H> {
    pub(crate) fn new(handler: H, port: Arc<str>, expected: Arc<str>) -> Self {
        TypedHandler {
            handler,
            port,
            expected,
            _marker: PhantomData,
        }
    }
}

impl<M: Message, H: MessageHandler<M>> ErasedHandler for TypedHandler<M, H> {
    fn process_any(&mut self, msg: &mut (dyn Any + Send), ctx: &mut HandlerCtx<'_>) -> Result<()> {
        match msg.downcast_mut::<M>() {
            Some(typed) => self.handler.process(typed, ctx),
            None => Err(CompadresError::MessageTypeMismatch {
                port: self.port.to_string(),
                expected: self.expected.to_string(),
            }),
        }
    }
}
