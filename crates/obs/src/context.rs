//! Request-scoped trace identity, propagated across process boundaries.
//!
//! A [`TraceContext`] names one request's causal tree: a 64-bit `trace`
//! id shared by every span in the tree, the current span's own id, and
//! its parent's. Clients mint a root context, send it over the wire as
//! the `x-moat-trace` header (`<trace>-<span>`, two 16-hex-digit words),
//! and each service stage derives child spans with [`TraceContext::child`].
//!
//! Child span ids are **derived, not drawn**: FNV-1a over
//! `(trace, parent, stage, index)`. No clock, no randomness, no thread
//! identity — so the span tree a traced job produces is a pure function
//! of the request and the work it caused, identical across worker counts
//! and re-runs. That is what lets the serve daemon's span trees keep the
//! parallelism-invariance contract of the logical obs mode.

/// One request's position in its causal tree (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Tree identity: shared by every span of the request.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id (0 for a root span).
    pub parent: u64,
}

impl TraceContext {
    /// A root context: the client-side span that starts a tree.
    pub fn root(trace: u64, span: u64) -> TraceContext {
        TraceContext {
            trace,
            span,
            parent: 0,
        }
    }

    /// Derive a child context for a named `stage`. `index` distinguishes
    /// repeated stages under the same parent (batch 0, 1, …); pass 0 when
    /// the stage occurs once. Deterministic: no clock, no randomness.
    pub fn child(&self, stage: &str, index: u64) -> TraceContext {
        let mut key = Vec::with_capacity(stage.len() + 24);
        key.extend_from_slice(&self.trace.to_be_bytes());
        key.extend_from_slice(&self.span.to_be_bytes());
        key.extend_from_slice(stage.as_bytes());
        key.extend_from_slice(&index.to_be_bytes());
        TraceContext {
            trace: self.trace,
            span: crate::fnv1a(crate::FNV_OFFSET, &key),
            parent: self.span,
        }
    }

    /// Render as the `x-moat-trace` wire value: `<trace>-<span>`, both as
    /// zero-padded 16-digit lower-case hex.
    pub fn header_value(&self) -> String {
        format!("{:016x}-{:016x}", self.trace, self.span)
    }

    /// Parse an `x-moat-trace` wire value. Returns `None` for anything
    /// malformed — propagation is best-effort, a bad header never fails
    /// the request it rode in on.
    pub fn parse(value: &str) -> Option<TraceContext> {
        let (t, s) = value.trim().split_once('-')?;
        if t.len() != 16 || s.len() != 16 {
            return None;
        }
        Some(TraceContext::root(
            u64::from_str_radix(t, 16).ok()?,
            u64::from_str_radix(s, 16).ok()?,
        ))
    }

    /// The trace id as 16-digit hex (the form spans and exemplars carry).
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace)
    }

    /// This span's id as 16-digit hex.
    pub fn span_hex(&self) -> String {
        format!("{:016x}", self.span)
    }

    /// The parent span id as 16-digit hex (`0000000000000000` for roots).
    pub fn parent_hex(&self) -> String {
        format!("{:016x}", self.parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let ctx = TraceContext::root(0xdead_beef_0000_1111, 0x2222_3333_4444_5555);
        let back = TraceContext::parse(&ctx.header_value()).unwrap();
        assert_eq!(back, ctx);
    }

    #[test]
    fn malformed_headers_are_rejected() {
        assert!(TraceContext::parse("").is_none());
        assert!(TraceContext::parse("abc-def").is_none());
        assert!(TraceContext::parse("0123456789abcdef").is_none());
        assert!(TraceContext::parse("0123456789abcdeg-0123456789abcdef").is_none());
    }

    #[test]
    fn children_are_deterministic_and_distinct() {
        let root = TraceContext::root(7, 11);
        let a = root.child("queue", 0);
        let b = root.child("queue", 0);
        assert_eq!(a, b, "same derivation inputs, same span id");
        assert_eq!(a.trace, root.trace);
        assert_eq!(a.parent, root.span);
        let c = root.child("queue", 1);
        let d = root.child("run", 0);
        assert_ne!(a.span, c.span, "index distinguishes repeats");
        assert_ne!(a.span, d.span, "stage distinguishes siblings");
        let grand = a.child("eval", 3);
        assert_eq!(grand.parent, a.span);
    }
}
