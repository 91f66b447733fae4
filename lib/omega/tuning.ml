(* Counters for the solver's hot paths (DESIGN.md section 9): variables
   eliminated by Fourier-Motzkin, split by exactness, and constraints
   dropped by the interval screen in [Problem.simplify]. *)

module Stats = struct
  type t = {
    mutable fm_eliminations : int;  (* variables eliminated by FM *)
    mutable fm_exact : int;  (* of which exact (incl. one-sided) *)
    mutable fm_split : int;  (* of which dark-shadow + splinters *)
    mutable pruned_interval : int;  (* constraints dropped by the screen *)
  }

  let make () =
    {
      fm_eliminations = 0;
      fm_exact = 0;
      fm_split = 0;
      pruned_interval = 0;
    }

  (* Per-domain record, like Budget's world: hot-path increments stay
     plain unsynchronized stores, and parallel tasks merge their record
     back at batch boundaries (Depend.Par). *)
  let key = Domain.DLS.new_key make

  let current () = Domain.DLS.get key
  let reset () = Domain.DLS.set key (make ())

  let exchange fresh =
    let old = current () in
    Domain.DLS.set key fresh;
    old

  let merge_into dst src =
    dst.fm_eliminations <- dst.fm_eliminations + src.fm_eliminations;
    dst.fm_exact <- dst.fm_exact + src.fm_exact;
    dst.fm_split <- dst.fm_split + src.fm_split;
    dst.pruned_interval <- dst.pruned_interval + src.pruned_interval

  let summary () =
    let stats = current () in
    Printf.sprintf
      "%d FM eliminations (%d exact, %d split), %d constraints \
       interval-pruned"
      stats.fm_eliminations stats.fm_exact stats.fm_split
      stats.pruned_interval
end
