//! Operand lists held inline.
//!
//! Every micro-operation has at most [`MAX_SRCS`] register sources, so an
//! operation keeps its sources in a [`SrcList`] inside itself rather than in
//! a heap `Vec`: binding a template, placing an op in a schedule, cloning an
//! artifact and loading a simulator copy each op and allocate nothing for
//! its sources. The list derefs to a slice, and its `Debug`, `Eq` and
//! `Hash` are the slice's, so they read exactly as a `Vec`'s do.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// The most register sources one operation may take. Every template of
/// the reference machines and every MIR operation takes at most two; the
/// artifact format has always carried any count, and three keeps a stored
/// op with a third source readable. A machine or record that asks for
/// more is refused where it is read: the MDL parser,
/// [`MachineDesc::validate`], [`decode_instr`] and the cache's artifact
/// reader.
///
/// [`MachineDesc::validate`]: crate::MachineDesc::validate
/// [`decode_instr`]: crate::decode_instr
pub const MAX_SRCS: usize = 3;

/// At most [`MAX_SRCS`] values, in order, never on the heap.
#[derive(Clone, Copy)]
pub struct SrcList<T: Copy> {
    len: u8,
    /// `None` while the list is empty. The first push fills every slot
    /// with its value, so the slots past `len` hold copies of a real
    /// value and no filler value is needed.
    slots: Option<[T; MAX_SRCS]>,
}

impl<T: Copy> SrcList<T> {
    /// The empty list.
    pub const fn new() -> Self {
        SrcList {
            len: 0,
            slots: None,
        }
    }

    /// Appends `v`.
    ///
    /// # Panics
    ///
    /// When the list already holds [`MAX_SRCS`] values. Code that fills a
    /// list from outside input checks the count first and reports it.
    pub fn push(&mut self, v: T) {
        let n = usize::from(self.len);
        match &mut self.slots {
            None => self.slots = Some([v; MAX_SRCS]),
            Some(slots) => {
                assert!(
                    n < MAX_SRCS,
                    "an operation takes at most {MAX_SRCS} sources"
                );
                slots[n] = v;
            }
        }
        self.len += 1;
    }
}

impl<T: Copy> Default for SrcList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> From<[T; N]> for SrcList<T> {
    fn from(values: [T; N]) -> Self {
        const { assert!(N <= MAX_SRCS, "an operation takes at most MAX_SRCS sources") };
        values.into_iter().collect()
    }
}

impl<T: Copy> FromIterator<T> for SrcList<T> {
    /// # Panics
    ///
    /// When `iter` yields more than [`MAX_SRCS`] values.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = SrcList::new();
        for v in iter {
            list.push(v);
        }
        list
    }
}

impl<T: Copy> Deref for SrcList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.slots {
            Some(slots) => &slots[..usize::from(self.len)],
            None => &[],
        }
    }
}

impl<T: Copy> DerefMut for SrcList<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.slots {
            Some(slots) => &mut slots[..usize::from(self.len)],
            None => &mut [],
        }
    }
}

impl<'a, T: Copy> IntoIterator for &'a SrcList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: Copy> IntoIterator for &'a mut SrcList<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for SrcList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: Copy + PartialEq> PartialEq for SrcList<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Eq> Eq for SrcList<T> {}

impl<T: Copy + Hash> Hash for SrcList<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn reads_like_the_vec_it_replaces() {
        for n in 0..=MAX_SRCS {
            let v: Vec<u32> = (10..10 + n as u32).collect();
            let l: SrcList<u32> = v.iter().copied().collect();
            assert_eq!(&*l, &v[..]);
            assert_eq!(format!("{l:?}"), format!("{v:?}"));
            assert_eq!(format!("{l:#?}"), format!("{v:#?}"));
            assert_eq!(hash_of(&l), hash_of(&v));
        }
    }

    #[test]
    fn equality_and_hash_ignore_the_slots_past_the_end() {
        // Slots [1, 5, 5] against [1, 1, 1].
        let mut a = SrcList::from([5]);
        a[0] = 1;
        let b = SrcList::from([1]);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a, SrcList::from([1, 1]));
        assert_eq!(SrcList::<i32>::new(), SrcList::from([]));
    }

    #[test]
    fn values_are_written_in_place() {
        let mut l = SrcList::from([1, 2]);
        for v in &mut l {
            *v *= 10;
        }
        l[0] += 1;
        assert_eq!(*l, [11, 20]);
        assert_eq!(l.iter().sum::<i32>(), 31);
    }

    #[test]
    #[should_panic(expected = "at most 3 sources")]
    fn a_fourth_push_panics() {
        let mut l = SrcList::from([1, 2, 3]);
        l.push(4);
    }
}
