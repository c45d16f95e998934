(** Deterministic seeded exponential backoff with jitter.

    The closed-loop load driver's retry loop ([Harness.run] and
    [Harness.run_fixed], on both backends) spaces out resubmissions of
    transiently-aborted transactions with delays drawn from a {!policy}. Delays are pure
    functions of [(policy, seed, attempt)], so a run is exactly
    reproducible from its seed; per-worker seeds keep streams independent.

    The schedule is {e monotone} (non-decreasing in [attempt], even with
    jitter — {!make} enforces [multiplier >= 1 + jitter], which makes the
    jittered floor of attempt [k+1] at least the jittered ceiling of
    attempt [k]) and {e capped} at [cap_us]. Both properties are checked by
    a QCheck test in [test/suite_util.ml]. *)

type policy = {
  base_us : float;  (** delay scale for the first retry (µs) *)
  multiplier : float;  (** exponential growth factor, [>= 1 + jitter] *)
  cap_us : float;  (** upper bound on any delay (µs) *)
  jitter : float;  (** jitter fraction in [0, 1]: delay is scaled by a
                       seeded uniform factor in [1, 1 + jitter] *)
}

(** 200 µs base, doubling, 50 ms cap, 0.5 jitter. *)
val default : policy

(** Smart constructor clamping fields into the valid ranges ([base_us >= 1],
    [jitter] in [0, 1], [multiplier >= 1 + jitter], [cap_us >= base_us]). *)
val make :
  ?base_us:float ->
  ?multiplier:float ->
  ?cap_us:float ->
  ?jitter:float ->
  unit ->
  policy

(** [delay_us p ~seed ~attempt] is the delay before retry number [attempt]
    (1-based: the first resubmission is attempt 1). Deterministic in
    [(p, seed, attempt)]; [0.] for [attempt < 1]. *)
val delay_us : policy -> seed:int -> attempt:int -> float
