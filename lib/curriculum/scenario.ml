module Serve = Cqp_serve.Serve
module Workload = Cqp_serve.Workload
module Rung = Cqp_resilience.Rung
module Imdb = Cqp_workload.Imdb
module C = Cqp_core

type catalog_spec = Small of int | Movies of { movies : int; seed : int }

let catalog_spec_to_string = function
  | Small seed -> Printf.sprintf "small:%d" seed
  | Movies { movies; seed } -> Printf.sprintf "movies:%d:%d" movies seed

let catalog_spec_of_string s =
  match String.split_on_char ':' s with
  | [ "small"; seed ] -> Small (int_of_string seed)
  | [ "movies"; movies; seed ] ->
      Movies { movies = int_of_string movies; seed = int_of_string seed }
  | _ -> failwith ("Scenario: bad catalog spec: " ^ s)

let build_catalog = function
  | Small seed -> Imdb.build ~config:Imdb.small_config ~seed ()
  | Movies { movies; seed } ->
      Imdb.build
        ~config:{ Imdb.default_config with Imdb.n_movies = movies }
        ~seed ()

type expect = {
  requests : int;
  served : int;
  shed : int;
  blown : int;
  retries : int;
  rungs : (string * int) list;
  digest : string;
}

type t = {
  name : string;
  catalog : catalog_spec;
  genome : Genome.t;
  entries : Workload.entry list;
  expect : expect;
  info : (string * float) list;
}

(* --- response observables ----------------------------------------- *)

let observable_line (r : Serve.response) =
  match r.Serve.verdict with
  | Serve.Shed { queue_position; limit } ->
      Printf.sprintf "shed %d %d" queue_position limit
  | Serve.Served s ->
      let o = s.Serve.outcome in
      let sol = o.C.Personalizer.solution in
      let p = sol.C.Solution.params in
      let rows =
        String.concat "|"
          (List.map
             (fun row ->
               String.concat ","
                 (List.map Cqp_relal.Value.to_string
                    (Cqp_relal.Tuple.to_list row)))
             o.C.Personalizer.rows)
      in
      Printf.sprintf
        "served %s r%d e%b ids=%s doi=%h cost=%h size=%h sql=%s rows=%s"
        (Rung.name s.Serve.rung) s.Serve.retries s.Serve.deadline_expired
        (String.concat "," (List.map string_of_int sol.C.Solution.pref_ids))
        p.C.Params.doi p.C.Params.cost p.C.Params.size
        (Cqp_sql.Printer.to_string o.C.Personalizer.personalized)
        rows

let digest responses =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map observable_line responses)))

let expect_of_responses responses =
  let count pred = List.length (List.filter pred responses) in
  let on_served f (r : Serve.response) =
    match r.Serve.verdict with
    | Serve.Served s -> f s
    | Serve.Shed _ -> false
  in
  {
    requests = List.length responses;
    served = count (on_served (fun _ -> true));
    shed =
      count (fun r ->
          match r.Serve.verdict with
          | Serve.Shed _ -> true
          | Serve.Served _ -> false);
    blown = count (on_served (fun s -> s.Serve.deadline_expired));
    retries =
      List.fold_left
        (fun acc (r : Serve.response) ->
          match r.Serve.verdict with
          | Serve.Served s -> acc + s.Serve.retries
          | Serve.Shed _ -> acc)
        0 responses;
    rungs =
      List.map
        (fun rung ->
          ( Rung.name rung,
            count (on_served (fun s -> s.Serve.rung = rung)) ))
        Rung.all;
    digest = digest responses;
  }

(* --- freeze / replay / check -------------------------------------- *)

let freeze ~name spec genome =
  let catalog = build_catalog spec in
  let entries = Genome.decode genome catalog in
  let server = Genome.server genome catalog in
  let responses = Workload.replay server entries in
  let fitness = Fitness.of_responses ~caches:(Serve.caches server) responses in
  {
    name;
    catalog = spec;
    genome;
    entries;
    expect = expect_of_responses responses;
    info =
      [
        ("score", Fitness.score fitness);
        ("p99_work", fitness.Fitness.p99_work);
        ("mean_work", fitness.Fitness.mean_work);
        ("stddev_work", fitness.Fitness.stddev_work);
        ("miss_ratio", fitness.Fitness.miss_ratio);
        ("est_cost_p99", fitness.Fitness.est_cost_p99);
      ];
  }

let replay ?pool t =
  let catalog = build_catalog t.catalog in
  let server = Genome.server t.genome catalog in
  Workload.replay ?pool server t.entries

let check ?pool t =
  let catalog = build_catalog t.catalog in
  let decoded =
    List.map Workload.entry_to_line (Genome.decode t.genome catalog)
  in
  let frozen = List.map Workload.entry_to_line t.entries in
  if decoded <> frozen then
    Error
      (Printf.sprintf
         "%s: genome no longer decodes to the frozen entries (%d vs %d \
          lines, or content drift)"
         t.name (List.length decoded) (List.length frozen))
  else begin
    let server = Genome.server t.genome catalog in
    let responses = Workload.replay ?pool server t.entries in
    let e = expect_of_responses responses in
    if e = t.expect then Ok ()
    else if e.digest <> t.expect.digest then
      Error
        (Printf.sprintf "%s: response digest drifted (%s -> %s)" t.name
           t.expect.digest e.digest)
    else
      Error
        (Printf.sprintf
           "%s: label tallies drifted (served %d->%d shed %d->%d blown \
            %d->%d retries %d->%d)"
           t.name t.expect.served e.served t.expect.shed e.shed
           t.expect.blown e.blown t.expect.retries e.retries)
  end

(* --- on-disk format ----------------------------------------------- *)

let expect_to_line e =
  Printf.sprintf
    "expect\trequests=%d\tserved=%d\tshed=%d\tblown=%d\tretries=%d\t\
     rungs=%s\tdigest=%s"
    e.requests e.served e.shed e.blown e.retries
    (String.concat ","
       (List.map (fun (n, c) -> Printf.sprintf "%s:%d" n c) e.rungs))
    e.digest

let split_kv part =
  match String.index_opt part '=' with
  | None -> failwith ("Scenario: bad field: " ^ part)
  | Some i ->
      ( String.sub part 0 i,
        String.sub part (i + 1) (String.length part - i - 1) )

let expect_of_line fields =
  let assoc = List.map split_kv fields in
  let get k =
    match List.assoc_opt k assoc with
    | Some v -> v
    | None -> failwith ("Scenario: expect line missing " ^ k)
  in
  {
    requests = int_of_string (get "requests");
    served = int_of_string (get "served");
    shed = int_of_string (get "shed");
    blown = int_of_string (get "blown");
    retries = int_of_string (get "retries");
    rungs =
      List.map
        (fun part ->
          match String.index_opt part ':' with
          | Some i ->
              ( String.sub part 0 i,
                int_of_string
                  (String.sub part (i + 1) (String.length part - i - 1)) )
          | None -> failwith ("Scenario: bad rung tally: " ^ part))
        (String.split_on_char ',' (get "rungs"));
    digest = get "digest";
  }

let to_lines t =
  [
    "# cqp curriculum frozen scenario — regenerate via `cqp curriculum \
     --export` (see EXPERIMENTS.md)";
    "name\t" ^ t.name;
    "catalog\t" ^ catalog_spec_to_string t.catalog;
    "genome\t" ^ Genome.to_string t.genome;
    expect_to_line t.expect;
    "info\t"
    ^ String.concat "\t"
        (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) t.info);
  ]
  @ List.map Workload.entry_to_line t.entries

let save ~dir t =
  let path = Filename.concat dir (t.name ^ ".scenario") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (to_lines t));
  path

let load path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | "" -> go acc
          | line when line.[0] = '#' -> go acc
          | line -> go (line :: acc)
        in
        go [])
  in
  let name = ref None
  and catalog = ref None
  and genome = ref None
  and expect = ref None
  and info = ref []
  and entries = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | "name" :: rest -> name := Some (String.concat "\t" rest)
      | [ "catalog"; spec ] -> catalog := Some (catalog_spec_of_string spec)
      | [ "genome"; g ] -> genome := Some (Genome.of_string g)
      | "expect" :: fields -> expect := Some (expect_of_line fields)
      | "info" :: fields ->
          info :=
            List.map
              (fun f ->
                let k, v = split_kv f in
                (k, float_of_string v))
              fields
      | ("user" | "req") :: _ ->
          entries := Workload.entry_of_line line :: !entries
      | _ -> failwith ("Scenario: malformed line in " ^ path ^ ": " ^ line))
    lines;
  let req what = function
    | Some v -> v
    | None -> failwith ("Scenario: " ^ path ^ " missing " ^ what)
  in
  {
    name = req "name" !name;
    catalog = req "catalog" !catalog;
    genome = req "genome" !genome;
    entries = List.rev !entries;
    expect = req "expect" !expect;
    info = !info;
  }
