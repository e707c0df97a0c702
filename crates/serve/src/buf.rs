//! A reusable buffer for the wire path.
//!
//! The v1 line loop, the v2 frame loop, the router's pooled backend
//! connections, and the fleet's heartbeat client all used to allocate a
//! fresh `Vec`/`String`/`BufReader` per request. Each now keeps one
//! `Vec<u8>` per connection whose capacity survives [`Vec::clear`]:
//! a read accumulator, or the v2 loop's write buffer, which encodes every
//! response frame of a burst back to back so that the burst goes out in
//! one write instead of one per frame. [`shrink_reusable`] clamps such a
//! buffer's high-water mark so one 1 MiB frame does not pin 1 MiB per
//! connection forever.

/// The capacity a reusable buffer is allowed to keep across requests.
/// Anything larger is released back to the allocator by
/// [`shrink_reusable`].
pub const REUSE_CAP_BYTES: usize = 64 * 1024;

/// Clamps a reusable buffer's retained capacity: clears it, and shrinks
/// it when a past oversized frame left it holding more than
/// [`REUSE_CAP_BYTES`].
pub fn shrink_reusable(buf: &mut Vec<u8>) {
    buf.clear();
    if buf.capacity() > REUSE_CAP_BYTES {
        buf.shrink_to(REUSE_CAP_BYTES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_reusable_clamps_the_high_water_mark() {
        let mut buf = vec![0u8; 2 * REUSE_CAP_BYTES];
        shrink_reusable(&mut buf);
        assert!(buf.is_empty());
        assert!(buf.capacity() <= REUSE_CAP_BYTES);
        let mut small = Vec::with_capacity(64);
        small.extend_from_slice(b"abc");
        shrink_reusable(&mut small);
        assert!(small.capacity() >= 64, "small buffers keep their capacity");
    }
}
