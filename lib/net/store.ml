module Profile = Cqp_prefs.Profile
module Lru = Cqp_util.Lru

(* A blob's location: which segment file, where the blob starts (past
   the [u32 len][16B fp] header), and how long it is. *)
type location = { seg : int; off : int; len : int }

type t = {
  dir : string;
  shards : int;
  mutable segs : (int * Unix.file_descr) list;  (* seg index -> fd *)
  mutable seg_ends : (int * int) list;  (* append offset per segment *)
  index : (string, location) Hashtbl.t;  (* raw fingerprint -> blob *)
  user_map : (string, string) Hashtbl.t;  (* user -> raw fingerprint *)
  resident : (string, Profile.t) Lru.t;
  log_fd : Unix.file_descr;
  mutable faults : int;
  mutable disk_bytes : int;
  mutable closed : bool;
}

type stats = {
  users : int;
  blobs : int;
  resident : int;
  faults : int;
  hits : int;
  evictions : int;
  disk_bytes : int;
}

let fp_len = 16
let seg_header_len = 4 + fp_len
let users_log = "users.log"

let seg_name i = Printf.sprintf "seg-%02d.dat" i

let seg_index_of_name name =
  try Scanf.sscanf name "seg-%d.dat" (fun i -> Some i)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let write_all fd bytes =
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      let w = Unix.write fd bytes off (n - off) in
      go (off + w)
  in
  go 0

let read_exactly fd buf off len =
  let rec go off remaining =
    if remaining > 0 then begin
      let r = Unix.read fd buf off remaining in
      if r = 0 then failwith "Store: short read (segment corrupt)";
      go (off + r) (remaining - r)
    end
  in
  go off len

let u32_be buf pos v =
  Bytes.set buf pos (Char.chr ((v lsr 24) land 0xff));
  Bytes.set buf (pos + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set buf (pos + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (pos + 3) (Char.chr (v land 0xff))

let get_u32_be buf pos =
  let b i = Char.code (Bytes.get buf (pos + i)) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

(* Raw 16-byte form of a profile's hex fingerprint — the on-disk and
   index key. *)
let raw_fingerprint p = Digest.from_hex (Profile.fingerprint p)

(* --- recovery --------------------------------------------------------- *)

(* Scan one segment: record every complete [len][fp][blob] record in
   the index, seeking over blobs.  A record cut short by a crash —
   short header or blob past end-of-file — ends the scan and is cut
   off, so the next append starts a record where the next scan looks
   for one; a structurally impossible length is corruption and
   raises. *)
let recover_segment t seg fd =
  let size = (Unix.fstat fd).Unix.st_size in
  let header = Bytes.create seg_header_len in
  let rec scan pos =
    if pos + seg_header_len > size then pos
    else begin
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      read_exactly fd header 0 seg_header_len;
      let len = get_u32_be header 0 in
      if len <= 0 || len > Wire.max_frame_len then
        failwith
          (Printf.sprintf "Store: %s/%s: corrupt record length %d at %d" t.dir
             (seg_name seg) len pos);
      if pos + seg_header_len + len > size then pos (* torn tail *)
      else begin
        let fp = Bytes.sub_string header 4 fp_len in
        Hashtbl.replace t.index fp { seg; off = pos + seg_header_len; len };
        scan (pos + seg_header_len + len)
      end
    end
  in
  let tail = scan 0 in
  if tail < size then Unix.ftruncate fd tail;
  t.seg_ends <- (seg, tail) :: List.remove_assoc seg t.seg_ends;
  t.disk_bytes <- t.disk_bytes + tail

(* Replay [users.log], last record wins.  The log is cut back to the
   end of the last record accepted: a torn record, or a mapping whose
   blob never made it to a segment (log flushed, segment append lost),
   goes with everything after it, so a later put lands where the next
   replay reads it. *)
let recover_users t path =
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  let rec scan pos =
    if pos + 2 > size then pos
    else begin
      let b0 = input_byte ic in
      let b1 = input_byte ic in
      let ulen = (b0 lsl 8) lor b1 in
      let next = pos + 2 + ulen + fp_len in
      if next > size then pos
      else begin
        let user = really_input_string ic ulen in
        let fp = really_input_string ic fp_len in
        if Hashtbl.mem t.index fp then begin
          Hashtbl.replace t.user_map user fp;
          t.disk_bytes <- t.disk_bytes + (next - pos);
          scan next
        end
        else pos
      end
    end
  in
  let accepted = scan 0 in
  close_in ic;
  if accepted < size then Unix.ftruncate t.log_fd accepted

let open_seg t seg =
  match List.assoc_opt seg t.segs with
  | Some fd -> fd
  | None ->
      let path = Filename.concat t.dir (seg_name seg) in
      let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
      t.segs <- (seg, fd) :: t.segs;
      if not (List.mem_assoc seg t.seg_ends) then
        t.seg_ends <- (seg, 0) :: t.seg_ends;
      fd

let open_ ?(shards = 16) ?(resident_capacity = 4096) ?on_evict dir =
  if shards < 1 then invalid_arg "Store.open_: shards < 1";
  (try
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
     else if not (Sys.is_directory dir) then
       failwith (Printf.sprintf "Store: %s exists and is not a directory" dir)
   with Unix.Unix_error (e, _, _) ->
     failwith
       (Printf.sprintf "Store: cannot create %s: %s" dir
          (Unix.error_message e)));
  let log_fd =
    Unix.openfile (Filename.concat dir users_log)
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
      0o644
  in
  let t =
    {
      dir;
      shards;
      segs = [];
      seg_ends = [];
      index = Hashtbl.create 1024;
      user_map = Hashtbl.create 1024;
      resident = Lru.create ?on_evict ~capacity:resident_capacity ();
      log_fd;
      faults = 0;
      disk_bytes = 0;
      closed = false;
    }
  in
  (* Recover every segment present, whatever shard count wrote it. *)
  Array.iter
    (fun name ->
      match seg_index_of_name name with
      | Some seg -> recover_segment t seg (open_seg t seg)
      | None -> ())
    (Sys.readdir dir);
  recover_users t (Filename.concat dir users_log);
  t

let check_open t = if t.closed then invalid_arg "Store: closed"

(* --- writes ----------------------------------------------------------- *)

let shard_of_fp t fp = Char.code fp.[0] mod t.shards

let append_blob t fp blob =
  let seg = shard_of_fp t fp in
  let fd = open_seg t seg in
  let off = List.assoc seg t.seg_ends in
  let blen = String.length blob in
  let record = Bytes.create (seg_header_len + blen) in
  u32_be record 0 blen;
  Bytes.blit_string fp 0 record 4 fp_len;
  Bytes.blit_string blob 0 record seg_header_len blen;
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  write_all fd record;
  t.seg_ends <- (seg, off + Bytes.length record) :: List.remove_assoc seg t.seg_ends;
  t.disk_bytes <- t.disk_bytes + Bytes.length record;
  Hashtbl.replace t.index fp { seg; off = off + seg_header_len; len = blen }

let append_user t user fp =
  let ulen = String.length user in
  if ulen > 0xffff then invalid_arg "Store.put: user name longer than 65535";
  let record = Bytes.create (2 + ulen + fp_len) in
  Bytes.set record 0 (Char.chr (ulen lsr 8));
  Bytes.set record 1 (Char.chr (ulen land 0xff));
  Bytes.blit_string user 0 record 2 ulen;
  Bytes.blit_string fp 0 record (2 + ulen) fp_len;
  write_all t.log_fd record;
  t.disk_bytes <- t.disk_bytes + Bytes.length record

let put t ~user profile =
  check_open t;
  let fp = raw_fingerprint profile in
  if not (Hashtbl.mem t.index fp) then
    append_blob t fp (Wire.encode_profile profile);
  append_user t user fp;
  Hashtbl.replace t.user_map user fp;
  Lru.add t.resident user profile

(* --- reads ------------------------------------------------------------ *)

let fault t user fp =
  match Hashtbl.find_opt t.index fp with
  | None -> None
  | Some { seg; off; len } ->
      let fd = open_seg t seg in
      let buf = Bytes.create len in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      read_exactly fd buf 0 len;
      (match Wire.decode_profile (Bytes.unsafe_to_string buf) with
      | Result.Error e ->
          failwith
            (Printf.sprintf "Store: %s/%s: blob at %d: %s" t.dir (seg_name seg)
               off (Wire.error_to_string e))
      | Result.Ok profile ->
          t.faults <- t.faults + 1;
          Lru.add t.resident user profile;
          Some profile)

let find t user =
  check_open t;
  match Lru.find t.resident user with
  | Some _ as hit -> hit
  | None -> (
      match Hashtbl.find_opt t.user_map user with
      | None -> None
      | Some fp -> fault t user fp)

let mem t user = Hashtbl.mem t.user_map user
let users t = Hashtbl.length t.user_map

let stats (t : t) =
  let lru = Lru.stats t.resident in
  {
    users = Hashtbl.length t.user_map;
    blobs = Hashtbl.length t.index;
    resident = Lru.length t.resident;
    faults = t.faults;
    hits = lru.Lru.hits;
    evictions = lru.Lru.evictions;
    disk_bytes = t.disk_bytes;
  }

let sync t =
  check_open t;
  List.iter (fun (_, fd) -> Unix.fsync fd) t.segs;
  Unix.fsync t.log_fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun (_, fd) -> Unix.close fd) t.segs;
    Unix.close t.log_fd
  end
