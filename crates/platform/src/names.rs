//! Host names, stored back to back in one buffer.
//!
//! The paper's model reads only a node's power and site; a host name is
//! needed only when a plan is written out (the GoDIET descriptor, DOT
//! labels) and when a catalog is fingerprinted. So a platform keeps every
//! name in one `String` instead of one heap allocation per node.

/// Every host name of a platform, back to back in one `String`, with the
/// end offset of each: name `i` is `text[ends[i - 1]..ends[i]]` (name 0
/// starts at 0).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct HostNames {
    text: String,
    ends: Vec<usize>,
}

impl HostNames {
    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Where name `i` starts in the text: where name `i - 1` ends.
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |before| self.ends[before])
    }

    /// Name `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub(crate) fn get(&self, i: usize) -> &str {
        &self.text[self.start(i)..self.ends[i]]
    }

    /// Names `first..`, in order.
    ///
    /// # Panics
    /// Panics if `first > len()`.
    pub(crate) fn iter_from(&self, first: usize) -> impl Iterator<Item = &str> + '_ {
        let mut start = self.start(first);
        self.ends[first..].iter().map(move |&end| {
            let name = &self.text[start..end];
            start = end;
            name
        })
    }

    /// Makes room for `additional` more offsets; the text grows as names
    /// are written.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.ends.reserve(additional);
    }

    /// Appends a name.
    pub(crate) fn push(&mut self, name: impl WriteName) {
        name.write_to(&mut self.text);
        self.ends.push(self.text.len());
    }

    /// Keeps the first `len` names.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.text.truncate(self.start(len));
            self.ends.truncate(len);
        }
    }
}

/// A host name that writes itself into a platform's name buffer, so a
/// batch of nodes needs no `String` per name.
pub(crate) trait WriteName {
    /// Appends the name to `buf`.
    fn write_to(self, buf: &mut String);
}

impl WriteName for &str {
    fn write_to(self, buf: &mut String) {
        buf.push_str(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_read_back_and_truncate() {
        let mut names = HostNames::default();
        for name in ["a", "", "bc", "déf"] {
            names.push(name);
        }
        assert_eq!(
            names.iter_from(0).collect::<Vec<_>>(),
            ["a", "", "bc", "déf"]
        );
        assert_eq!(names.iter_from(3).collect::<Vec<_>>(), ["déf"]);
        assert_eq!(names.iter_from(4).count(), 0);
        let mut cut = names.clone();
        cut.truncate(2);
        assert_eq!(cut.iter_from(0).collect::<Vec<_>>(), ["a", ""]);
        cut.push("x");
        assert_eq!(cut.get(2), "x");
        cut.truncate(0);
        assert_eq!(cut, HostNames::default());
        names.truncate(9);
        assert_eq!(names.len(), 4, "a longer length keeps every name");
    }
}
