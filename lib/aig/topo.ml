(* Structural measurements, served from the graph's revision-stamped
   derived-view cache: repeated queries against an unchanged graph are O(1)
   and share one bulk computation.  The returned arrays are owned by the
   cache — read-only for callers (every in-tree consumer that needs to
   mutate counts, e.g. {!Cone.mffc}, copies first). *)

let levels g = Graph.levels g

let depth g = Graph.depth g

let fanout_counts g = Graph.ref_counts g
