(* Variables of Omega problems.

   Three kinds, mirroring the roles in the paper:
   - [Input]: iteration variables and other named problem variables.
   - [Sym]: symbolic constants (loop-invariant scalars, the [Sym] set of the
     paper's notation table).
   - [Wild]: existentially quantified wildcards introduced by exact equality
     elimination and splintering; never visible to clients. *)

type kind = Input | Sym | Wild

type t = { id : int; name : string; kind : kind }

(* Allocation is domain-local so that any domain can mint variables
   without a lock: each domain draws ids from its own 2^40-wide slot
   ([slot lsl 40 + 1 ..]), claimed once per domain from an atomic slot
   counter.  The main domain is pinned to slot 0 at module
   initialization, so a single-domain run allocates exactly the ids the
   global-counter implementation did.

   Two variables minted on different domains therefore never collide,
   and within one domain ids still increase in allocation order — the
   property everything downstream leans on (constraint emission order,
   canonical memo keys, the elimination tie-break all depend only on
   the {e relative} id order of variables that co-occur in a problem).
   Co-occurring variables are minted by one domain, or, for the
   instances [Depctx.create] mints up front, by a domain whose slot
   precedes the one minting the rest of the problem's variables. *)

let slot_bits = 40

type alloc = { mutable next : int }

let next_slot = Atomic.make 0

let alloc_key =
  Domain.DLS.new_key (fun () ->
      { next = Atomic.fetch_and_add next_slot 1 lsl slot_bits })
(* i.e. (slot) lsl slot_bits: application binds tighter than [lsl] *)

(* Pin the main domain to slot 0. *)
let () = ignore (Domain.DLS.get alloc_key)

let next_id () =
  let a = Domain.DLS.get alloc_key in
  a.next <- a.next + 1;
  a.next

let fresh ?(kind = Input) name = { id = next_id (); name; kind }

let fresh_wild () =
  let id = next_id () in
  (* name from the slot-local ordinal: stable, small, and identical to
     the pre-domain-local numbering on the main domain *)
  { id; name = Printf.sprintf "_w%d" (id land ((1 lsl slot_bits) - 1)); kind = Wild }

let id t = t.id
let name t = t.name
let kind t = t.kind
let is_wild t = t.kind = Wild

let compare a b = compare a.id b.id
let equal a b = a.id = b.id
let hash t = t.id

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
