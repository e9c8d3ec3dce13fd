(** Sharded on-disk profile store: the network front door's backing
    storage for populations far past what a resident [Hashtbl] should
    hold (100k–1M profiles) with bounded resident memory.

    {2 Layout}

    A store is a directory:

    {v
    seg-00.dat .. seg-NN.dat   profile blobs, sharded by fingerprint
    users.log                  user -> fingerprint mapping, last-wins
    v}

    Profiles are {e content-addressed}: the record key is
    {!Cqp_prefs.Profile.fingerprint} (stored raw, 16 bytes), so two
    users with byte-identical profiles share one blob, and a corrupt
    blob is detectable by re-fingerprinting.  A segment record is
    [u32 blob_len][16B fingerprint][blob] where [blob] is
    {!Wire.encode_profile}; the segment for a fingerprint is its first
    byte modulo the shard count.  [users.log] records are
    [u16 user_len][user][16B fingerprint], appended on every {!put};
    the latest record for a user wins on reopen.

    Both files are append-only.  Reopen scans record headers (blobs
    are skipped by seek, not read) and cuts each file back to the end
    of the last record it accepts: a torn tail record — a crash
    mid-append — is detected by a short header or a short blob, and a
    [users.log] record whose blob is missing is refused; either goes,
    along with anything after it in that file, so the next append
    lands where the next reopen reads it.

    {2 Residency}

    Decoded profiles live in a user-keyed LRU of configured capacity;
    a {!find} miss faults the blob back from its segment.  Resident
    count never exceeds the capacity, whatever the on-disk population
    ([test/test_net_store.ml] holds the store to this).  The
    [on_evict] hook observes capacity-driven drops so the server can
    keep its lanes' installed profiles in lockstep with residency.

    Not thread-safe: the network server guards its store with one
    dedicated mutex, taken before any lane lock (see {!Server}). *)

type t

type stats = {
  users : int;  (** distinct users mapped *)
  blobs : int;  (** distinct profile contents on disk *)
  resident : int;  (** decoded profiles in memory, <= capacity *)
  faults : int;  (** blobs decoded back from disk *)
  hits : int;  (** finds answered from residency *)
  evictions : int;  (** capacity-driven residency drops *)
  disk_bytes : int;  (** total segment + log bytes written *)
}

val open_ :
  ?shards:int ->
  ?resident_capacity:int ->
  ?on_evict:(string -> Cqp_prefs.Profile.t -> unit) ->
  string ->
  t
(** [open_ dir] creates [dir] if needed and recovers the index from
    the segment files and [users.log].  [shards] (default 16) is fixed
    at directory creation — reopening with a different count reuses
    the existing segment files and only spreads {e new} blobs over the
    requested count.  [resident_capacity] (default 4096) bounds the
    decoded-profile LRU; [on_evict] is forwarded to it (fires after
    the store's bookkeeping, outside any lock).
    @raise Failure when the directory cannot be created or a segment
    record is structurally corrupt (not merely torn at the tail). *)

val put : t -> user:string -> Cqp_prefs.Profile.t -> unit
(** Map [user] to the profile, writing the blob only when its
    fingerprint is new, and install it resident.  Replacing a user's
    profile appends a new [users.log] record (last-wins); the old blob
    stays on disk (content-addressed storage does not reclaim). *)

val find : t -> string -> Cqp_prefs.Profile.t option
(** Resident hit, or fault the blob back from its segment (installing
    it resident, possibly evicting), or [None] for an unknown user. *)

val mem : t -> string -> bool
(** Residency- and statistics-neutral. *)

val users : t -> int
val stats : t -> stats

val close : t -> unit
(** Flush and close the descriptors; the store must not be used after.
    Every record is flushed at append time, so a close-less crash
    loses at most the torn tail record. *)

val sync : t -> unit
(** [fsync] segments and log — durability barrier for tests. *)
