//! A message that fails its handler every time is dropped after the
//! supervision policy's one retry, and the executor still reaches
//! quiescence.

use bytes::Bytes;
use udc_actor::{Actor, ActorError, Ctx, Message, SupervisionPolicy, System};

#[test]
fn poison_message_does_not_wedge_the_system() {
    struct Fragile;
    impl Actor for Fragile {
        fn on_message(&mut self, _ctx: &mut Ctx, msg: &Message) -> Result<(), ActorError> {
            if msg.payload.as_ref() == b"poison" {
                Err(ActorError("boom".into()))
            } else {
                Ok(())
            }
        }
    }
    let mut sys = System::new();
    sys.spawn("f", Box::new(Fragile), SupervisionPolicy::RestartAndRetry);
    sys.inject("f", Bytes::from_static(b"ok"));
    sys.inject("f", Bytes::from_static(b"poison"));
    sys.inject("f", Bytes::from_static(b"ok"));
    let (_, quiescent) = sys.run_until_quiescent(1_000);
    assert!(quiescent, "poison must be dropped, not retried forever");
    assert_eq!(sys.stats().delivered, 2);
    assert_eq!(sys.stats().failures, 2, "original + one retry");
}
