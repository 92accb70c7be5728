"""The nearest-common-ancestor labeling scheme of Alstrup et al. (ref [6]).

An *informative labeling scheme* for NCA: every node ``v`` of a rooted tree
gets a label ``lambda(v)`` such that for any two nodes ``u, v`` the label of
their nearest common ancestor is computable from ``lambda(u)`` and
``lambda(v)`` **alone**.  Section V of the paper uses this to let every node
decide locally whether it belongs to the fundamental cycle of a designated
non-tree edge.

Construction (heavy-path based):

* every node's *heavy child* is its child with the largest subtree (ties to
  the smallest identity); heavy edges partition the tree into *heavy paths*;
* the structured label of ``v`` is the sequence of ``(apex, depth)`` pairs
  met on the way from the root: for each heavy path traversed, the apex
  (top node) of the path and the depth along it at which the walk exits
  (or, for the last pair, at which ``v`` sits);
* since every light edge at least halves the subtree size, labels carry at
  most ``floor(log2 n) + 1`` pairs.

NCA from two labels: take the longest common prefix of the pair sequences;
if the first differing pairs share the apex, the NCA sits on that heavy
path at the smaller depth; otherwise the NCA is the node whose label is
exactly the common prefix.  (If one label is a prefix of the other, that
node is the NCA.)

Wire format: per ref [6] the pairs are encoded with Gilbert–Moore
alphabetic codes whose lengths telescope along the root-to-leaf walk, giving
O(log n)-bit labels.  We build the same encoding and *measure* the claim on
it (:meth:`NCALabeling.encoded_bits`); the nca computation itself runs on
the structured form, which carries the same information.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trees import RootedTree
from repro.graphs.network import Network
from repro.labeling.gilbert_moore import code_lengths, gilbert_moore_code

__all__ = ["NCALabel", "NCALabeling", "nca_of_labels", "label_is_ancestor"]


@dataclass(frozen=True)
class NCALabel:
    """A structured NCA label: the sequence of (apex, depth) pairs."""

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("an NCA label has at least one segment")

    @property
    def final_apex(self) -> int:
        return self.segments[-1][0]

    @property
    def final_depth(self) -> int:
        return self.segments[-1][1]


def nca_of_labels(a: NCALabel, b: NCALabel) -> NCALabel:
    """The label of the nearest common ancestor, from two labels alone."""
    sa, sb = a.segments, b.segments
    common = 0
    for pa, pb in zip(sa, sb):
        if pa != pb:
            break
        common += 1
    if common == len(sa) and common == len(sb):
        return a  # same node
    if common == len(sa):
        return a  # a's node is an ancestor of b's node (label prefix)
    if common == len(sb):
        return b
    apex_a, depth_a = sa[common]
    apex_b, depth_b = sb[common]
    if apex_a == apex_b:
        # both walks run along the same heavy path and separate at the
        # shallower of the two depths
        return NCALabel(sa[:common] + ((apex_a, min(depth_a, depth_b)),))
    # the walks took different light edges out of the same exit node,
    # whose label is exactly the common prefix
    if common == 0:
        raise ValueError("labels of two nodes of the same tree share the root apex")
    return NCALabel(sa[:common])


def label_is_ancestor(a: NCALabel, d: NCALabel) -> bool:
    """Whether the node labeled ``a`` is an ancestor of (or equals) the node
    labeled ``d``, decided from the two labels alone."""
    return nca_of_labels(a, d) == a


class NCALabeling:
    """The labeling of one concrete rooted tree (the sequential prover).

    Also exposes the heavy-child structure (needed by the proof-labeling
    scheme of Lemma 5.1) and the Gilbert–Moore encoded size of every label
    (the space measurement).
    """

    def __init__(self, net: Network, tree: RootedTree) -> None:
        self.net = net
        self.tree = tree
        self.sizes = tree.subtree_sizes()
        self.heavy: dict[int, int | None] = {
            v: self._heavy_child(v) for v in net.nodes
        }
        self.labels: dict[int, NCALabel] = {}
        self._assign_labels()
        self._encoded: dict[int, str] = {}
        self._encode_all()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def _heavy_child(self, v: int) -> int | None:
        kids = self.tree.children(v)
        if not kids:
            return None
        # maximum subtree size, ties to the smallest identity
        return min(kids, key=lambda c: (-self.sizes[c], c))

    def _assign_labels(self) -> None:
        root = self.tree.root
        self.labels[root] = NCALabel(((root, 0),))
        order = sorted(self.net.nodes, key=self.tree.depth)
        for v in order:
            if v == root:
                continue
            p = self.tree.parent(v)
            plab = self.labels[p]
            if self.heavy[p] == v:
                apex, depth = plab.segments[-1]
                self.labels[v] = NCALabel(plab.segments[:-1] + ((apex, depth + 1),))
            else:
                self.labels[v] = NCALabel(plab.segments + ((v, 0),))

    def label(self, v: int) -> NCALabel:
        return self.labels[v]

    def node_of(self, label: NCALabel) -> int:
        """The node carrying this label (oracle-side inverse)."""
        # the final apex starts a heavy path; walk its heavy chain down
        v = label.final_apex
        for _ in range(label.final_depth):
            h = self.heavy[v]
            if h is None:
                raise ValueError(f"label {label} walks past a leaf")
            v = h
        return v

    def nca(self, u: int, v: int) -> int:
        """NCA computed through the labels (checked against the tree oracle
        in the tests)."""
        return self.node_of(nca_of_labels(self.labels[u], self.labels[v]))

    # ------------------------------------------------------------------
    # Gilbert–Moore wire format (the O(log n)-bit measurement)
    # ------------------------------------------------------------------

    def _heavy_path_from(self, apex: int) -> list[int]:
        path = [apex]
        while self.heavy[path[-1]] is not None:
            path.append(self.heavy[path[-1]])
        return path

    def _encode_all(self) -> None:
        """Encode every label: per heavy-path segment, a GM codeword for the
        stopping depth (weighted by the probability mass hanging at each
        position) and, if the walk continues, a GM codeword for the light
        child taken (weighted by subtree sizes, with a STOP symbol).

        Lengths telescope: each segment costs about
        log2(size(apex)/size(next apex)) + O(1) bits, so the total is
        log2(n) + O(log n) = O(log n) bits.
        """
        path_cache: dict[int, list[int]] = {}
        for v in self.net.nodes:
            bits: list[str] = []
            segs = self.labels[v].segments
            for i, (apex, depth) in enumerate(segs):
                if apex not in path_cache:
                    path_cache[apex] = self._heavy_path_from(apex)
                hpath = path_cache[apex]
                # weight of position t: mass not continuing down the heavy
                # path (the node itself plus its light subtrees)
                pos_weights = [
                    self.sizes[x] - (self.sizes[self.heavy[x]] if self.heavy[x] else 0)
                    for x in hpath
                ]
                pos_codes = gilbert_moore_code(pos_weights)
                bits.append(pos_codes[depth])
                exit_node = hpath[depth]
                if i + 1 < len(segs):
                    next_apex = segs[i + 1][0]
                    light = [c for c in self.tree.children(exit_node)
                             if c != self.heavy[exit_node]]
                    choice_weights = [1] + [self.sizes[c] for c in light]
                    lengths = code_lengths(choice_weights)
                    idx = 1 + light.index(next_apex)
                    codes = gilbert_moore_code(choice_weights)
                    assert len(codes[idx]) == lengths[idx]
                    bits.append(codes[idx])
                else:
                    # terminator: the STOP symbol of the choice alphabet
                    light = [c for c in self.tree.children(exit_node)
                             if c != self.heavy[exit_node]]
                    choice_weights = [1] + [self.sizes[c] for c in light]
                    codes = gilbert_moore_code(choice_weights)
                    bits.append(codes[0])
            self._encoded[v] = "".join(bits)

    def encoded_bits(self, v: int) -> int:
        """The wire size of v's label in bits."""
        return len(self._encoded[v])

    def max_encoded_bits(self) -> int:
        return max(self.encoded_bits(v) for v in self.net.nodes)
