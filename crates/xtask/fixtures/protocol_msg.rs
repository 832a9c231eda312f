//! Fixture: a tagged wire enum and its declaration in its codec module.
//! The declaration must satisfy neither the handler nor the send-site
//! side of the dispatch graph — it is the codec, not the protocol logic.

pub enum CtrlMsg {
    Ping,
    Halt { reason: u8 },
    Status(u64),
}

/// Not a wire enum (no declaration): the rule must ignore it entirely.
pub enum Internal {
    Tick,
}

pub struct Seq {
    pub n: u64,
}

wire! {
    pub const WIRE_TYPES;

    struct Seq { n: u64 }
    enum CtrlMsg {
        0 => Ping,
        CtrlMsg::TAG_HALT => Halt { reason: u8 },
        2 => Status(seq: u64),
    }
}
