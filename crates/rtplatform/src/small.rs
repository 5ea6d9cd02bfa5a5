//! A short list that lives where its owner lives.
//!
//! The message path is full of lists that are almost always one to
//! four items long and built once per message — the regions of a frame,
//! the scopes above a component. A `Vec` pays the heap for each of
//! them; [`SmallList`] keeps the first `N` items inline and only goes
//! to the heap for the rare longer list.

/// Up to `N` items stored inline, any number on the heap beyond that.
/// Reads as a slice. Items are `Copy`, so the inline slots need no
/// bookkeeping beyond a length (unused ones hold the `fill` value the
/// list was made with).
#[derive(Debug, Clone)]
pub struct SmallList<T: Copy, const N: usize> {
    /// Items held in `inline`; meaningless once `spill` is in use.
    len: usize,
    inline: [T; N],
    /// Empty until item `N + 1` arrives, then holds every item.
    spill: Vec<T>,
}

impl<T: Copy, const N: usize> SmallList<T, N> {
    /// An empty list; `fill` is what the unused inline slots hold.
    pub fn new(fill: T) -> Self {
        SmallList {
            len: 0,
            inline: [fill; N],
            spill: Vec::new(),
        }
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        if self.spill.is_empty() && self.len < N {
            self.inline[self.len] = item;
            self.len += 1;
            return;
        }
        if self.spill.is_empty() {
            self.spill.reserve(2 * N);
            self.spill.extend_from_slice(&self.inline[..self.len]);
        }
        self.spill.push(item);
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for SmallList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_as_a_slice_inline_and_spilled() {
        let mut list: SmallList<u32, 2> = SmallList::new(0);
        assert!(list.is_empty());
        list.push(7);
        list.push(8);
        assert_eq!(&list[..], &[7, 8]);
        assert!(list.spill.is_empty(), "two items fit inline");
        list.push(9);
        list.push(10);
        assert_eq!(&list[..], &[7, 8, 9, 10], "order survives the spill");
        assert_eq!(list.clone().len(), 4);
    }
}
