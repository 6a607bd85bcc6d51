//! MPI-style derived datatypes.
//!
//! The original collective I/O path (OCIO) requires applications to describe
//! noncontiguous memory and file layouts with derived datatypes
//! (`MPI_Type_contiguous`, `MPI_Type_vector`, `MPI_Type_indexed`,
//! `MPI_Type_create_struct`, `MPI_Type_create_subarray`) and to install them
//! as file views. TCIO itself uses an indexed type to coalesce a gathered
//! one-sided transfer into a single message (§IV.A). This module implements
//! the constructors, the size/extent algebra, the merged type map as strided
//! [`Run`]s, and pack/unpack against user buffers.
//!
//! Displacements follow MPI semantics: a type has a *size* (bytes of actual
//! data), a *lower bound* and an *extent* (the stride used when the type is
//! repeated `count` times).

use crate::error::{MpiError, Result};
use std::sync::Arc;

/// Basic (named) datatypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Named {
    Byte,
    Char,
    Short,
    Int,
    Long,
    Float,
    Double,
}

impl Named {
    pub fn size(self) -> usize {
        match self {
            Named::Byte | Named::Char => 1,
            Named::Short => 2,
            Named::Int | Named::Float => 4,
            Named::Long | Named::Double => 8,
        }
    }

    /// Parse the single-letter codes used by the paper's Table I
    /// (`c`: char, `s`: short, `i`: int, `f`: float, `d`: double).
    pub fn from_code(code: char) -> Option<Named> {
        match code {
            'b' => Some(Named::Byte),
            'c' => Some(Named::Char),
            's' => Some(Named::Short),
            'i' => Some(Named::Int),
            'l' => Some(Named::Long),
            'f' => Some(Named::Float),
            'd' => Some(Named::Double),
            _ => None,
        }
    }
}

/// Array ordering for subarray types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Row-major (last dimension varies fastest).
    C,
    /// Column-major (first dimension varies fastest).
    Fortran,
}

/// A (possibly derived) datatype. Cheap to clone: derived nodes hold `Arc`s.
#[derive(Debug, Clone)]
pub enum Datatype {
    Named(Named),
    /// `count` consecutive copies of `child`.
    Contiguous {
        count: usize,
        child: Arc<Datatype>,
    },
    /// `count` blocks of `blocklen` children, block starts separated by
    /// `stride` child extents.
    Vector {
        count: usize,
        blocklen: usize,
        stride: isize,
        child: Arc<Datatype>,
    },
    /// Blocks of `blocklens[i]` children at displacements `displs[i]`
    /// (in child extents).
    Indexed {
        blocklens: Arc<[usize]>,
        displs: Arc<[isize]>,
        child: Arc<Datatype>,
    },
    /// Heterogeneous blocks: `blocklens[i]` copies of `children[i]` at byte
    /// displacement `displs_bytes[i]`.
    Struct {
        blocklens: Arc<[usize]>,
        displs_bytes: Arc<[isize]>,
        children: Arc<[Arc<Datatype>]>,
    },
    /// An n-dimensional subarray of a larger n-dimensional array.
    Subarray {
        sizes: Arc<[usize]>,
        subsizes: Arc<[usize]>,
        starts: Arc<[usize]>,
        order: Order,
        child: Arc<Datatype>,
    },
    /// Child with an overridden lower bound and extent (MPI_Type_create_resized).
    Resized {
        lb: isize,
        extent: usize,
        child: Arc<Datatype>,
    },
}

impl Datatype {
    // ---- constructors mirroring the MPI type-creation calls ----

    pub fn named(n: Named) -> Datatype {
        Datatype::Named(n)
    }

    pub fn contiguous(count: usize, child: Datatype) -> Datatype {
        Datatype::Contiguous {
            count,
            child: Arc::new(child),
        }
    }

    pub fn vector(count: usize, blocklen: usize, stride: isize, child: Datatype) -> Datatype {
        Datatype::Vector {
            count,
            blocklen,
            stride,
            child: Arc::new(child),
        }
    }

    pub fn indexed(blocklens: Vec<usize>, displs: Vec<isize>, child: Datatype) -> Result<Datatype> {
        if blocklens.len() != displs.len() {
            return Err(MpiError::InvalidDatatype(format!(
                "indexed: {} blocklens but {} displacements",
                blocklens.len(),
                displs.len()
            )));
        }
        Ok(Datatype::Indexed {
            blocklens: blocklens.into(),
            displs: displs.into(),
            child: Arc::new(child),
        })
    }

    pub fn structured(
        blocklens: Vec<usize>,
        displs_bytes: Vec<isize>,
        children: Vec<Datatype>,
    ) -> Result<Datatype> {
        if blocklens.len() != displs_bytes.len() || blocklens.len() != children.len() {
            return Err(MpiError::InvalidDatatype(
                "struct: blocklens, displacements, and children must have equal length".into(),
            ));
        }
        Ok(Datatype::Struct {
            blocklens: blocklens.into(),
            displs_bytes: displs_bytes.into(),
            children: children.into_iter().map(Arc::new).collect(),
        })
    }

    pub fn subarray(
        sizes: Vec<usize>,
        subsizes: Vec<usize>,
        starts: Vec<usize>,
        order: Order,
        child: Datatype,
    ) -> Result<Datatype> {
        let n = sizes.len();
        if subsizes.len() != n || starts.len() != n || n == 0 {
            return Err(MpiError::InvalidDatatype(
                "subarray: sizes, subsizes, starts must be equal-length and nonempty".into(),
            ));
        }
        for d in 0..n {
            if starts[d] + subsizes[d] > sizes[d] {
                return Err(MpiError::InvalidDatatype(format!(
                    "subarray: dim {d}: start {} + subsize {} exceeds size {}",
                    starts[d], subsizes[d], sizes[d]
                )));
            }
        }
        Ok(Datatype::Subarray {
            sizes: sizes.into(),
            subsizes: subsizes.into(),
            starts: starts.into(),
            order,
            child: Arc::new(child),
        })
    }

    pub fn resized(lb: isize, extent: usize, child: Datatype) -> Datatype {
        Datatype::Resized {
            lb,
            extent,
            child: Arc::new(child),
        }
    }

    // ---- size / extent algebra ----

    /// Number of bytes of actual data in one instance of this type.
    pub fn size(&self) -> usize {
        match self {
            Datatype::Named(n) => n.size(),
            Datatype::Contiguous { count, child } => count * child.size(),
            Datatype::Vector {
                count,
                blocklen,
                child,
                ..
            } => count * blocklen * child.size(),
            Datatype::Indexed {
                blocklens, child, ..
            } => blocklens.iter().sum::<usize>() * child.size(),
            Datatype::Struct {
                blocklens,
                children,
                ..
            } => blocklens
                .iter()
                .zip(children.iter())
                .map(|(b, c)| b * c.size())
                .sum(),
            Datatype::Subarray {
                subsizes, child, ..
            } => subsizes.iter().product::<usize>() * child.size(),
            Datatype::Resized { child, .. } => child.size(),
        }
    }

    /// `(lower_bound, upper_bound)` in bytes relative to the type origin.
    fn bounds(&self) -> (isize, isize) {
        match self {
            Datatype::Named(n) => (0, n.size() as isize),
            Datatype::Contiguous { count, child } => {
                let ext = child.extent() as isize;
                let (lb, _) = child.bounds();
                if *count == 0 {
                    (0, 0)
                } else {
                    (lb, lb + ext * *count as isize)
                }
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
                child,
            } => strided_bounds(*count, *blocklen, *stride * child.extent() as isize, child),
            Datatype::Indexed {
                blocklens,
                displs,
                child,
            } => indexed_bounds(
                blocklens,
                displs.iter().map(|&d| d * child.extent() as isize),
                child,
            ),
            Datatype::Struct {
                blocklens,
                displs_bytes,
                children,
            } => {
                let mut lb = isize::MAX;
                let mut ub = isize::MIN;
                for ((&b, &d), c) in blocklens
                    .iter()
                    .zip(displs_bytes.iter())
                    .zip(children.iter())
                {
                    if b == 0 {
                        continue;
                    }
                    let (clb, _) = c.bounds();
                    let ext = c.extent() as isize;
                    lb = lb.min(d + clb);
                    ub = ub.max(d + clb + ext * b as isize);
                }
                if lb == isize::MAX {
                    (0, 0)
                } else {
                    (lb, ub)
                }
            }
            Datatype::Subarray { sizes, child, .. } => {
                // A subarray's extent spans the whole enclosing array.
                let total: usize = sizes.iter().product();
                (0, (total * child.extent()) as isize)
            }
            Datatype::Resized { lb, extent, .. } => (*lb, *lb + *extent as isize),
        }
    }

    /// Lower bound in bytes.
    pub fn lb(&self) -> isize {
        self.bounds().0
    }

    /// Extent in bytes: the stride applied between consecutive instances.
    pub fn extent(&self) -> usize {
        let (lb, ub) = self.bounds();
        (ub - lb).max(0) as usize
    }

    // ---- type maps ----

    /// The merged type map of one instance, as strided runs relative to
    /// the type origin, in type-map order. Built bottom-up: a node lays
    /// copies of its child's runs at its own stride, so a block of dense
    /// children is one run and the cost follows the runs, not the bytes.
    fn runs(&self) -> Vec<Run> {
        let mut out = TypeMap::default();
        match self {
            Datatype::Named(n) => out.block(0, n.size()),
            Datatype::Contiguous { count, child } => {
                out.repeat(&child.runs(), 0, child.extent() as isize, *count);
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
                child,
            } => {
                let ext = child.extent() as isize;
                let mut block = TypeMap::default();
                block.repeat(&child.runs(), 0, ext, *blocklen);
                out.repeat(&block.runs, 0, *stride * ext, *count);
            }
            Datatype::Indexed {
                blocklens,
                displs,
                child,
            } => {
                let (ext, child) = (child.extent() as isize, child.runs());
                for (&b, &d) in blocklens.iter().zip(displs.iter()) {
                    out.repeat(&child, d * ext, ext, b);
                }
            }
            Datatype::Struct {
                blocklens,
                displs_bytes,
                children,
            } => {
                for ((&b, &d), c) in blocklens
                    .iter()
                    .zip(displs_bytes.iter())
                    .zip(children.iter())
                {
                    out.repeat(&c.runs(), d, c.extent() as isize, b);
                }
            }
            Datatype::Subarray {
                sizes,
                subsizes,
                starts,
                order,
                child,
            } => {
                // A subarray is nested vectors: rows of `subsizes[fastest]`
                // children, laid `subsizes[d]` times at each slower
                // dimension's stride.
                let n = sizes.len();
                let fastest_first: Vec<usize> = match order {
                    Order::C => (0..n).rev().collect(),
                    Order::Fortran => (0..n).collect(),
                };
                let mut stride = child.extent() as isize;
                out.runs = child.runs();
                for d in fastest_first {
                    let inner = std::mem::take(&mut out.runs);
                    out.repeat(&inner, starts[d] as isize * stride, stride, subsizes[d]);
                    stride *= sizes[d] as isize;
                }
            }
            Datatype::Resized { child, .. } => return child.runs(),
        }
        out.runs
    }

    /// Commit the type: precompute the merged type map and cache the
    /// size/extent. Mirrors `MPI_Type_commit`.
    pub fn commit(&self) -> Committed {
        Committed {
            size: self.size(),
            extent: self.extent(),
            lb: self.lb(),
            runs: self.runs().into(),
            ty: self.clone(),
        }
    }
}

/// One strided run of a type map: `count` blocks of `len` bytes, block `i`
/// at byte `off + i * stride` from the type origin. A lone block has
/// `count == 1` and `stride == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub off: isize,
    pub len: usize,
    pub stride: isize,
    pub count: usize,
}

impl Run {
    /// Block `i` as `(offset, len)`.
    pub fn block(&self, i: usize) -> (isize, usize) {
        (self.off + self.stride * i as isize, self.len)
    }

    /// The `(offset, len)` blocks, in order.
    pub fn blocks(&self) -> impl Iterator<Item = (isize, usize)> + Clone + '_ {
        (0..self.count).map(|i| self.block(i))
    }
}

/// A type map under construction. Blocks adjacent *in type-map order* are
/// merged as they arrive (MPI type maps are ordered, so this is the
/// canonical coalescing): no two consecutive blocks of the expansion touch.
#[derive(Default)]
struct TypeMap {
    runs: Vec<Run>,
}

impl TypeMap {
    /// Where the last block ends.
    fn end(&self) -> Option<isize> {
        let last = self.runs.last()?;
        Some(last.block(last.count - 1).0 + last.len as isize)
    }

    /// Append one block.
    fn block(&mut self, off: isize, len: usize) {
        if len == 0 {
            return;
        }
        let lone = |off, len| Run {
            off,
            len,
            stride: 0,
            count: 1,
        };
        let touches = self.end() == Some(off);
        match self.runs.last_mut().filter(|_| touches) {
            None => self.runs.push(lone(off, len)),
            Some(last) if last.count == 1 => last.len += len,
            Some(last) => {
                // The last block of a strided run grows: it leaves the run.
                last.count -= 1;
                let (at, had) = last.block(last.count);
                if last.count == 1 {
                    last.stride = 0;
                }
                self.runs.push(lone(at, had + len));
            }
        }
    }

    /// Append `count` blocks of `len` bytes, `stride` apart.
    fn strided(&mut self, off: isize, len: usize, stride: isize, count: usize) {
        if count == 0 || len == 0 {
            return;
        }
        if count == 1 || stride == len as isize {
            return self.block(off, len * count);
        }
        if self.end() == Some(off) {
            // Only the first block touches what came before; the rest can
            // touch neither it nor each other.
            self.block(off, len);
            return self.strided(off + stride, len, stride, count - 1);
        }
        self.runs.push(Run {
            off,
            len,
            stride,
            count,
        });
    }

    /// Append `count` copies of `child` (one instance's runs), copy `i`
    /// displaced by `base + i * stride`.
    fn repeat(&mut self, child: &[Run], base: isize, stride: isize, count: usize) {
        match child {
            [] => {}
            [one] if one.count == 1 => self.strided(base + one.off, one.len, stride, count),
            _ => {
                for i in 0..count {
                    let at = base + stride * i as isize;
                    for r in child {
                        self.strided(at + r.off, r.len, r.stride, r.count);
                    }
                }
            }
        }
    }
}

fn strided_bounds(
    count: usize,
    blocklen: usize,
    stride_bytes: isize,
    child: &Datatype,
) -> (isize, isize) {
    if count == 0 || blocklen == 0 {
        return (0, 0);
    }
    let ext = child.extent() as isize;
    let (clb, _) = child.bounds();
    let block = ext * blocklen as isize;
    let mut lb = isize::MAX;
    let mut ub = isize::MIN;
    for i in [0usize, count - 1] {
        let start = stride_bytes * i as isize + clb;
        lb = lb.min(start);
        ub = ub.max(start + block);
    }
    (lb, ub)
}

fn indexed_bounds(
    blocklens: &[usize],
    displs_bytes: impl Iterator<Item = isize>,
    child: &Datatype,
) -> (isize, isize) {
    let ext = child.extent() as isize;
    let (clb, _) = child.bounds();
    let mut lb = isize::MAX;
    let mut ub = isize::MIN;
    for (&b, d) in blocklens.iter().zip(displs_bytes) {
        if b == 0 {
            continue;
        }
        lb = lb.min(d + clb);
        ub = ub.max(d + clb + ext * b as isize);
    }
    if lb == isize::MAX {
        (0, 0)
    } else {
        (lb, ub)
    }
}

/// A committed datatype: immutable, cheap to clone, with the merged type
/// map precomputed as strided runs. This is what I/O layers consume.
#[derive(Debug, Clone)]
pub struct Committed {
    size: usize,
    extent: usize,
    lb: isize,
    runs: Arc<[Run]>,
    ty: Datatype,
}

impl Committed {
    pub fn size(&self) -> usize {
        self.size
    }

    pub fn extent(&self) -> usize {
        self.extent
    }

    pub fn lb(&self) -> isize {
        self.lb
    }

    /// The type map of one instance in its compact form, in type-map
    /// order: no two consecutive blocks of the expansion touch. Shared, so
    /// a file view holds the same runs rather than a copy.
    pub fn runs(&self) -> &Arc<[Run]> {
        &self.runs
    }

    /// Merged `(offset, len)` byte extents of one instance, in type-map
    /// order: the expansion of [`Committed::runs`].
    pub fn extents(&self) -> impl Iterator<Item = (isize, usize)> + Clone + '_ {
        self.runs.iter().flat_map(Run::blocks)
    }

    pub fn datatype(&self) -> &Datatype {
        &self.ty
    }

    /// True if one instance is a single contiguous run starting at offset 0.
    pub fn is_contiguous(&self) -> bool {
        match &self.runs[..] {
            [] => true,
            [one] => one.off == 0 && one.count == 1,
            _ => false,
        }
    }

    /// Where block 0 of `run` of instance `i` starts in a buffer of `have`
    /// bytes whose first byte is the type origin — once every block of the
    /// run is known to lie inside the buffer.
    fn locate(&self, what: &str, i: usize, run: &Run, have: usize) -> Result<usize> {
        let outside = |why: String| Err(MpiError::InvalidDatatype(format!("{what}: {why}")));
        let Some(base) = i.checked_mul(self.extent) else {
            return outside(format!("instance {i} lies outside the address space"));
        };
        let first = base as i128 + run.off as i128;
        let last = first + run.stride as i128 * (run.count as i128 - 1);
        let (lo, hi) = (first.min(last), first.max(last) + run.len as i128);
        if lo < 0 {
            return outside("negative displacement relative to buffer start".into());
        }
        if hi > have as i128 {
            return outside(format!(
                "extent [{lo}, {hi}) exceeds buffer of {have} bytes"
            ));
        }
        Ok(first as usize)
    }

    /// Pack `count` instances laid out in `src` (origin at `src\[0\]`,
    /// instances separated by the extent) into a contiguous byte vector.
    ///
    /// Negative type-map offsets are not supported when packing from a slice
    /// (the data would precede the buffer); such types return an error.
    pub fn pack(&self, src: &[u8], count: usize) -> Result<Vec<u8>> {
        // No more than `src` can supply: a wild `count` fails at its first
        // out-of-range run below, not in the allocator.
        let mut out = Vec::with_capacity(self.size.saturating_mul(count).min(src.len()));
        for i in 0..count {
            for run in self.runs.iter() {
                let mut at = self.locate("pack", i, run, src.len())?;
                for _ in 0..run.count {
                    out.extend_from_slice(&src[at..at + run.len]);
                    at = at.wrapping_add_signed(run.stride);
                }
            }
        }
        Ok(out)
    }

    /// Unpack a contiguous byte stream into `count` instances within `dst`.
    pub fn unpack(&self, stream: &[u8], dst: &mut [u8], count: usize) -> Result<()> {
        if self
            .size
            .checked_mul(count)
            .is_none_or(|n| stream.len() < n)
        {
            return Err(MpiError::InvalidDatatype(format!(
                "unpack: stream of {} bytes shorter than {} instances × {} bytes",
                stream.len(),
                count,
                self.size
            )));
        }
        let mut stream = stream;
        for i in 0..count {
            for run in self.runs.iter() {
                let mut at = self.locate("unpack", i, run, dst.len())?;
                for _ in 0..run.count {
                    let (block, rest) = stream.split_at(run.len);
                    dst[at..at + run.len].copy_from_slice(block);
                    stream = rest;
                    at = at.wrapping_add_signed(run.stride);
                }
            }
        }
        Ok(())
    }
}

/// The type map the way it used to be built — every named element its own
/// entry, then a merge pass — kept as the oracle the strided runs are
/// checked against.
#[cfg(test)]
mod oracle {
    use super::*;

    impl Datatype {
        /// Flatten one instance into byte extents `(offset, len)` relative
        /// to the type origin, in type-map order (not sorted, not merged).
        pub(super) fn flatten_raw(&self) -> Vec<(isize, usize)> {
            let mut out = Vec::new();
            self.flatten_into(0, &mut out);
            out
        }

        fn flatten_into(&self, base: isize, out: &mut Vec<(isize, usize)>) {
            match self {
                Datatype::Named(n) => out.push((base, n.size())),
                Datatype::Contiguous { count, child } => {
                    let ext = child.extent() as isize;
                    for i in 0..*count {
                        child.flatten_into(base + ext * i as isize, out);
                    }
                }
                Datatype::Vector {
                    count,
                    blocklen,
                    stride,
                    child,
                } => {
                    let ext = child.extent() as isize;
                    flatten_strided(*count, *blocklen, *stride * ext, child, base, out);
                }
                Datatype::Indexed {
                    blocklens,
                    displs,
                    child,
                } => {
                    let ext = child.extent() as isize;
                    for (&b, &d) in blocklens.iter().zip(displs.iter()) {
                        let start = base + d * ext;
                        for j in 0..b {
                            child.flatten_into(start + ext * j as isize, out);
                        }
                    }
                }
                Datatype::Struct {
                    blocklens,
                    displs_bytes,
                    children,
                } => {
                    for ((&b, &d), c) in blocklens
                        .iter()
                        .zip(displs_bytes.iter())
                        .zip(children.iter())
                    {
                        let ext = c.extent() as isize;
                        for j in 0..b {
                            c.flatten_into(base + d + ext * j as isize, out);
                        }
                    }
                }
                Datatype::Subarray {
                    sizes,
                    subsizes,
                    starts,
                    order,
                    child,
                } => flatten_subarray(sizes, subsizes, starts, *order, child, base, out),
                Datatype::Resized { child, .. } => child.flatten_into(base, out),
            }
        }

        /// `flatten_raw`, with extents adjacent in type-map order merged.
        pub(super) fn flatten_merged(&self) -> Vec<(isize, usize)> {
            let mut merged: Vec<(isize, usize)> = Vec::new();
            for (off, len) in self.flatten_raw() {
                if len == 0 {
                    continue;
                }
                if let Some(last) = merged.last_mut() {
                    if last.0 + last.1 as isize == off {
                        last.1 += len;
                        continue;
                    }
                }
                merged.push((off, len));
            }
            merged
        }
    }

    fn flatten_strided(
        count: usize,
        blocklen: usize,
        stride_bytes: isize,
        child: &Datatype,
        base: isize,
        out: &mut Vec<(isize, usize)>,
    ) {
        let ext = child.extent() as isize;
        for i in 0..count {
            let start = base + stride_bytes * i as isize;
            for j in 0..blocklen {
                child.flatten_into(start + ext * j as isize, out);
            }
        }
    }

    fn flatten_subarray(
        sizes: &[usize],
        subsizes: &[usize],
        starts: &[usize],
        order: Order,
        child: &Datatype,
        base: isize,
        out: &mut Vec<(isize, usize)>,
    ) {
        let n = sizes.len();
        let ext = child.extent() as isize;
        // Compute strides (in elements) for each dimension under the ordering.
        let mut strides = vec![1usize; n];
        match order {
            Order::C => {
                for d in (0..n.saturating_sub(1)).rev() {
                    strides[d] = strides[d + 1] * sizes[d + 1];
                }
            }
            Order::Fortran => {
                for d in 1..n {
                    strides[d] = strides[d - 1] * sizes[d - 1];
                }
            }
        }
        // Iterate over all index tuples of the subarray.
        let mut idx = vec![0usize; n];
        loop {
            let mut elem = 0usize;
            for d in 0..n {
                elem += (starts[d] + idx[d]) * strides[d];
            }
            child.flatten_into(base + elem as isize * ext, out);
            // Advance the index tuple, fastest-varying dimension per ordering.
            let dims: Box<dyn Iterator<Item = usize>> = match order {
                Order::C => Box::new((0..n).rev()),
                Order::Fortran => Box::new(0..n),
            };
            let mut done = true;
            for d in dims {
                idx[d] += 1;
                if idx[d] < subsizes[d] {
                    done = false;
                    break;
                }
                idx[d] = 0;
            }
            if done {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn byte() -> Datatype {
        Datatype::named(Named::Byte)
    }

    /// The expanded type map.
    fn extents(c: &Committed) -> Vec<(isize, usize)> {
        c.extents().collect()
    }

    #[test]
    fn named_sizes() {
        assert_eq!(Named::Int.size(), 4);
        assert_eq!(Named::Double.size(), 8);
        assert_eq!(Named::from_code('i'), Some(Named::Int));
        assert_eq!(Named::from_code('d'), Some(Named::Double));
        assert_eq!(Named::from_code('x'), None);
    }

    #[test]
    fn contiguous_size_and_extent() {
        let t = Datatype::contiguous(5, Datatype::named(Named::Int));
        assert_eq!(t.size(), 20);
        assert_eq!(t.extent(), 20);
        let c = t.commit();
        assert_eq!(extents(&c), [(0, 20)]);
        assert!(c.is_contiguous());
    }

    #[test]
    fn vector_flattening_matches_paper_file_view() {
        // The paper's example file view: etype = {int, double} contiguous
        // (12 bytes), filetype = vector(count=LEN, blocklen=1, stride=P).
        let etype = Datatype::contiguous(12, byte());
        let ft = Datatype::vector(3, 1, 2, etype); // LEN=3, P=2
        assert_eq!(ft.size(), 36);
        assert_eq!(ft.extent(), 12 * (2 * 2 + 1)); // last block at stride 2*2
        let c = ft.commit();
        assert_eq!(extents(&c), [(0, 12), (24, 12), (48, 12)]);
    }

    #[test]
    fn vector_with_blocklen_merges_within_blocks() {
        // stride of 4 child extents = 16 bytes for 4-byte ints.
        let t = Datatype::vector(2, 3, 4, Datatype::named(Named::Int));
        let c = t.commit();
        assert_eq!(extents(&c), [(0, 12), (16, 12)]);
        assert_eq!(c.size(), 24);
        assert_eq!(c.extent(), 28);
    }

    #[test]
    fn indexed_disjoint_blocks() {
        let t = Datatype::indexed(vec![2, 1], vec![0, 5], Datatype::named(Named::Int)).unwrap();
        let c = t.commit();
        assert_eq!(extents(&c), [(0, 8), (20, 4)]);
        assert_eq!(t.size(), 12);
        assert_eq!(t.extent(), 24);
    }

    #[test]
    fn indexed_length_mismatch_rejected() {
        assert!(Datatype::indexed(vec![1], vec![0, 1], byte()).is_err());
    }

    #[test]
    fn struct_negative_displacement_bounds() {
        let int = Datatype::named(Named::Int);
        let t = Datatype::structured(vec![1, 1], vec![-4, 4], vec![int.clone(), int]).unwrap();
        assert_eq!(t.lb(), -4);
        assert_eq!(t.extent(), 12);
    }

    #[test]
    fn struct_heterogeneous() {
        // {int at 0, double at 8} — a typical C struct with padding.
        let t = Datatype::structured(
            vec![1, 1],
            vec![0, 8],
            vec![Datatype::named(Named::Int), Datatype::named(Named::Double)],
        )
        .unwrap();
        assert_eq!(t.size(), 12);
        assert_eq!(t.extent(), 16);
        let c = t.commit();
        assert_eq!(extents(&c), [(0, 4), (8, 8)]);
    }

    #[test]
    fn struct_length_mismatch_rejected() {
        assert!(Datatype::structured(vec![1], vec![0, 8], vec![byte(), byte()]).is_err());
    }

    #[test]
    fn subarray_c_order() {
        // 4x4 array of ints, take the 2x2 block starting at (1,1).
        let t = Datatype::subarray(
            vec![4, 4],
            vec![2, 2],
            vec![1, 1],
            Order::C,
            Datatype::named(Named::Int),
        )
        .unwrap();
        assert_eq!(t.size(), 16);
        assert_eq!(t.extent(), 64); // whole enclosing array
        let c = t.commit();
        assert_eq!(extents(&c), [(20, 8), (36, 8)]);
    }

    #[test]
    fn subarray_fortran_order() {
        let t = Datatype::subarray(
            vec![4, 4],
            vec![2, 2],
            vec![1, 1],
            Order::Fortran,
            Datatype::named(Named::Int),
        )
        .unwrap();
        let c = t.commit();
        // Column-major: element (i,j) at i + j*4; block (1..3, 1..3).
        assert_eq!(extents(&c), [(20, 8), (36, 8)]);
    }

    #[test]
    fn subarray_out_of_bounds_rejected() {
        assert!(Datatype::subarray(vec![4], vec![3], vec![2], Order::C, byte()).is_err());
    }

    #[test]
    fn resized_overrides_extent() {
        let t = Datatype::resized(0, 32, Datatype::named(Named::Int));
        assert_eq!(t.size(), 4);
        assert_eq!(t.extent(), 32);
        let c = t.commit();
        let packed_src: Vec<u8> = (0..64u8).collect();
        let packed = c.pack(&packed_src, 2).unwrap();
        assert_eq!(packed, vec![0, 1, 2, 3, 32, 33, 34, 35]);
    }

    #[test]
    fn pack_unpack_roundtrip_vector() {
        let t = Datatype::vector(4, 2, 5, byte()).commit();
        let src: Vec<u8> = (0..40u8).collect();
        let packed = t.pack(&src, 2).unwrap();
        assert_eq!(packed.len(), t.size() * 2);
        let mut dst = vec![0u8; 40];
        t.unpack(&packed, &mut dst, 2).unwrap();
        // Every byte touched by the type map must round-trip.
        for inst in 0..2 {
            for (off, len) in t.extents() {
                let at = (inst * t.extent()) as isize + off;
                let at = at as usize;
                assert_eq!(&dst[at..at + len], &src[at..at + len]);
            }
        }
    }

    #[test]
    fn pack_out_of_bounds_rejected() {
        let t = Datatype::vector(4, 1, 4, Datatype::named(Named::Int)).commit();
        let src = vec![0u8; 10];
        assert!(t.pack(&src, 1).is_err());
    }

    #[test]
    fn unpack_short_stream_rejected() {
        let t = Datatype::contiguous(4, byte()).commit();
        let mut dst = vec![0u8; 4];
        assert!(t.unpack(&[1, 2], &mut dst, 1).is_err());
    }

    #[test]
    fn zero_count_types_are_empty() {
        let t = Datatype::contiguous(0, byte());
        assert_eq!(t.size(), 0);
        assert_eq!(t.extent(), 0);
        assert!(t.commit().runs().is_empty());
    }

    #[test]
    fn nested_types_compose() {
        // vector of structs: the ART-ish "many small arrays" shape.
        let rec = Datatype::structured(
            vec![1, 2],
            vec![0, 8],
            vec![Datatype::named(Named::Int), Datatype::named(Named::Double)],
        )
        .unwrap();
        let t = Datatype::vector(2, 1, 2, rec);
        let c = t.commit();
        assert_eq!(c.size(), 2 * (4 + 16));
        assert_eq!(c.extents().count(), 4);
    }

    /// A random datatype tree: every constructor, zero counts, negative
    /// strides and displacements, overlapping and touching blocks.
    fn random_type(rng: &mut rand::rngs::StdRng, depth: u32) -> Datatype {
        use rand::RngExt;
        let mut pick = |lo: i64, hi: i64| lo + (rng.next_u64() % (hi - lo) as u64) as i64;
        if depth == 0 || pick(0, 4) == 0 {
            let named = [Named::Byte, Named::Short, Named::Int, Named::Double];
            return Datatype::named(named[pick(0, 4) as usize]);
        }
        let kind = pick(0, 6);
        let n = pick(1, 4) as usize;
        let lens: Vec<usize> = (0..n).map(|_| pick(0, 4) as usize).collect();
        match kind {
            0 => Datatype::contiguous(pick(0, 5) as usize, random_type(rng, depth - 1)),
            1 => {
                let (count, blocklen, stride) = (pick(0, 6), pick(0, 4), pick(-3, 7));
                let child = random_type(rng, depth - 1);
                Datatype::vector(count as usize, blocklen as usize, stride as isize, child)
            }
            2 => {
                let displs = (0..n).map(|_| pick(-4, 9) as isize).collect();
                Datatype::indexed(lens, displs, random_type(rng, depth - 1)).unwrap()
            }
            3 => {
                let displs = (0..n).map(|_| pick(-16, 48) as isize).collect();
                let children = (0..n).map(|_| random_type(rng, depth - 1)).collect();
                Datatype::structured(lens, displs, children).unwrap()
            }
            4 => {
                // No empty dimension: the oracle's odometer emits one
                // element before it looks at the subsizes.
                let sizes: Vec<usize> = (0..n).map(|_| pick(1, 5) as usize).collect();
                let subsizes: Vec<usize> = sizes
                    .iter()
                    .map(|&s| pick(1, s as i64 + 1) as usize)
                    .collect();
                let starts = sizes
                    .iter()
                    .zip(&subsizes)
                    .map(|(&s, &sub)| pick(0, (s - sub) as i64 + 1) as usize)
                    .collect();
                let order = [Order::C, Order::Fortran][pick(0, 2) as usize];
                Datatype::subarray(sizes, subsizes, starts, order, random_type(rng, depth - 1))
                    .unwrap()
            }
            _ => {
                let (lb, extent) = (pick(-4, 5) as isize, pick(0, 40) as usize);
                Datatype::resized(lb, extent, random_type(rng, depth - 1))
            }
        }
    }

    #[test]
    fn runs_expand_to_the_flatten_and_merge_oracle_on_random_trees() {
        use rand::SeedableRng;
        let mut strided = 0;
        for seed in 0..2000u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xda7a ^ seed);
            let t = random_type(&mut rng, 3);
            let c = t.commit();
            let want = t.flatten_merged();
            assert_eq!(extents(&c), want, "seed {seed}: {t:?}");
            // The compact form is canonical: a strided run's blocks do not
            // touch (they may overlap), and a lone block carries no stride.
            for r in c.runs().iter() {
                assert!(r.len > 0 && r.count > 0, "seed {seed}: {r:?}");
                assert!(r.stride != r.len as isize, "seed {seed}: {r:?}");
                assert!(r.count > 1 || r.stride == 0, "seed {seed}: {r:?}");
                strided += (r.count > 1) as usize;
            }
            assert_eq!(c.size(), t.size());
            assert_eq!(c.size(), want.iter().map(|&(_, len)| len).sum::<usize>());
            assert_eq!((c.extent(), c.lb()), (t.extent(), t.lb()));
            assert_eq!(
                c.is_contiguous(),
                want.len() <= 1 && want.iter().all(|&(o, _)| o == 0)
            );

            // pack ∘ unpack over two instances, against the oracle's map.
            let instances = 2;
            let reach = want.iter().map(|&(o, l)| o + l as isize).max().unwrap_or(0);
            let have = (c.extent() * (instances - 1)) + reach.max(0) as usize;
            let src: Vec<u8> = (0..have).map(|i| (i % 251) as u8 + 1).collect();
            if want.iter().any(|&(o, _)| o < 0) {
                assert!(c.pack(&src, instances).is_err(), "seed {seed}");
                continue;
            }
            let packed = c.pack(&src, instances).unwrap();
            let mut gathered = Vec::new();
            let mut mapped = vec![false; have];
            for i in 0..instances {
                for &(off, len) in &want {
                    let at = i * c.extent() + off as usize;
                    gathered.extend_from_slice(&src[at..at + len]);
                    mapped[at..at + len].fill(true);
                }
            }
            assert_eq!(packed, gathered, "seed {seed}: {t:?}");
            let mut dst = vec![0u8; have];
            c.unpack(&packed, &mut dst, instances).unwrap();
            for at in 0..have {
                let want = if mapped[at] { src[at] } else { 0 };
                assert_eq!(dst[at], want, "seed {seed}: byte {at} of {t:?}");
            }
        }
        assert!(strided > 500, "only {strided} strided runs were generated");
    }

    /// Program 2's filetype — `vector(LEN_array, 1, P, etype)` — is one
    /// run whatever `LEN_array` is.
    #[test]
    fn program2_filetype_is_one_run() {
        let etype = Datatype::contiguous(12, byte());
        for len_array in [1usize, 4096, 15104] {
            let c = Datatype::vector(len_array, 1, 256, etype.clone()).commit();
            let stride = if len_array == 1 { 0 } else { 3072 };
            let one = Run {
                off: 0,
                len: 12,
                stride,
                count: len_array,
            };
            assert_eq!(c.runs()[..], [one]);
            assert_eq!(c.extents().count(), len_array);
        }
    }

    /// Committing costs the runs, not the bytes: 2^32 blocks are one run.
    #[test]
    fn commit_cannot_be_linear_in_the_blocks() {
        let c = Datatype::vector(1 << 32, 1, 256, Datatype::contiguous(12, byte())).commit();
        assert_eq!(c.runs().len(), 1);
        assert_eq!(c.size(), 12 << 32);
        assert_eq!(
            c.runs()[0].block((1 << 32) - 1),
            (3072 * ((1 << 32) - 1), 12)
        );
        // A wild count fails at its first out-of-range block.
        assert!(c.pack(&[0u8; 64], 1).is_err());
    }
}
