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

/// Object-safe handler slot used internally by ports: built once per
/// activation record, filled at every activation and emptied at every
/// deactivation.
pub(crate) trait ErasedHandler: Send {
    /// Puts a handler the user's factory has just built in the slot.
    fn fill(&mut self);
    /// Drops the slot's handler, keeping the slot.
    fn clear(&mut self);
    fn process_any(&mut self, msg: &mut (dyn Any + Send), ctx: &mut HandlerCtx<'_>) -> Result<()>;
}

/// Builds a component object at every activation of an instance.
pub(crate) type ComponentFactory = Arc<dyn Fn() -> Box<dyn Component> + Send + Sync>;
/// Builds an in-port's empty handler slot for a new activation record.
pub(crate) type HandlerFactory = Arc<dyn Fn() -> Box<dyn ErasedHandler> + Send + Sync>;

pub(crate) struct TypedHandler<M: Message, H: MessageHandler<M>> {
    factory: Arc<dyn Fn() -> H + Send + Sync>,
    handler: Option<H>,
    _marker: PhantomData<fn(&mut M)>,
}

impl<M: Message, H: MessageHandler<M>> TypedHandler<M, H> {
    pub(crate) fn new(factory: Arc<dyn Fn() -> H + Send + Sync>) -> Self {
        TypedHandler {
            factory,
            handler: None,
            _marker: PhantomData,
        }
    }
}

impl<M: Message, H: MessageHandler<M>> ErasedHandler for TypedHandler<M, H> {
    fn fill(&mut self) {
        self.handler = Some((self.factory)());
    }

    fn clear(&mut self) {
        self.handler = None;
    }

    fn process_any(&mut self, msg: &mut (dyn Any + Send), ctx: &mut HandlerCtx<'_>) -> Result<()> {
        let handler = self.handler.as_mut().expect("a held record is filled");
        match msg.downcast_mut::<M>() {
            Some(typed) => handler.process(typed, ctx),
            // Entry points check `TypeId` first: this only feeds a counter.
            None => Err(CompadresError::MessageTypeMismatch {
                port: String::new(),
                expected: String::new(),
            }),
        }
    }
}
