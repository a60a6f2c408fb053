"""Finite pointfree topology: frames, locales, spaces and lifting problems.

Everything here is exhaustively finite.  Posets and spaces carry their
elements as sorted labels with bitmask subsets; frames are finite
distributive lattices whose joins and meets are the unions and
intersections of a family of sets; and the higher layers
(coproducts of frames, the open-sets/points adjunction, pseudotopological
spaces, lifting problems in preorders) only ever quantify over sets they
can enumerate.

The package re-exports nothing; import each name from the module that
defines it:

- `bits`, `order`: bitmask iteration and the shared order kernels
  (`upsets`, `product_rows`, `inclusion_rows`, `fill` and its cached list
  `maps`, `glue`, `transitive_closure`, the one gluing kernel `glue_span`
  with its closure half `quotient_rows`, the one isomorphism search
  `isomorphisms`, `is_isomorphism`, and the corpus dedupe
  `representatives`);
- `poset`: `Preorder`, the one order type, with its subclass
  `FinitePoset`, the one map class `PreMap` with its enumerator
  `iter_monotone_maps`, the one labelled `pushout`, and `validate_poset`;
- `frames`: `FiniteFrame`, whose one constructor
  `FiniteFrame(labels, family)` builds the frame of a family of sets
  closed under union and intersection, and which `frame_from_poset`,
  `downset_frame`, `spatial.omega` and every construction in `colimits`
  call; `FrameHom`, `iter_frame_homs`, nuclei and Galois connections;
- `colimits`: frame coproducts, and `TupleFrame`, the one frame of
  tuples that products and localic pushout apexes are, each built as a
  set family by `frames.FiniteFrame`;
- `spaces`: `FiniteSpace`, the `Preorder` of a space's specialization
  order, soberness, pushouts and products;
- `spatial`: `omega`, on the set-family kernel, `pt` and their adjunction;
- `pstop`: pseudotopologies and the lemma checks;
- `lifting`: lifting verdicts, pushout-products and bounded
  factorization over preorders;
- `corpus`: the enumerated structures the suites run over;
- `serialize`: canonical JSON in and out;
- `suites`, `cli`: the verification suites and the `finitetop` command;
- `errors`: the exception hierarchy under `FinitetopError`.
"""

__version__ = "0.1.0"
