//! Test Access Mechanism (TAM), Test Controller and test-IO management
//! for the STEAC platform.
//!
//! The paper's §3 quantifies three artifacts this crate generates and
//! models:
//!
//! * the **TAM multiplexer** ("about 132 gates") — [`bus`],
//! * the **Test Controller** ("about 371 gates", session sequencing) —
//!   [`controller`],
//! * the **test-IO budget**: "more test control IOs are needed for
//!   parallel testing, so fewer IO pins can be used as the test data IOs
//!   (i.e., TAM IOs)" — [`iopin`] — and the control-IO sharing that
//!   reduced the DSC's 19 control pins — [`share`].

pub mod bus;
pub mod controller;
pub mod iopin;
pub mod share;

pub use bus::{tam_mux_module, TamCoreSpec, TamSpec};
pub use controller::{controller_module, ControllerSpec, CoreControl};
pub use iopin::PinBudget;
pub use share::{
    share_controls, shared_pin_count, ControlClass, ControlSignal, ShareGroup, SharePolicy,
    ShareReport,
};

#[cfg(test)]
mod tests {
    #[test]
    fn crate_links() {
        // The public items are exercised in module tests; this guards the
        // re-export surface.
        let _ = crate::PinBudget::new(180);
    }
}
