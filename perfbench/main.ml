(* The benchmark command:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
   prints raw figures on a "raw" line and, as its last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}: end-to-end
   metrics with --trace 0, per-layer metrics with --trace 1. Exits 1
   when an answer is wrong. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Perfbench.Streams.names);
      ("--seed", Arg.Set_int seed, "N seed of the operation stream");
      ("--seconds", Arg.Set_float seconds, "S nominal run length (sets the number of rounds)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Perfbench.Streams.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let stream = Perfbench.Streams.make ~name:!workload ~seed:!seed ~seconds:!seconds in
  let r =
    if !trace = 1 then Perfbench.Runner.traced stream else Perfbench.Runner.untraced stream
  in
  let num v = Printf.sprintf "%.17g" v in
  print_endline
    ("raw {"
     ^ String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (num v)) r.notes)
     ^ "}");
  print_endline
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
       r.correct r.attempted r.failed
       (String.concat ", "
          (List.map
             (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u)
             r.metrics)));
  if not r.correct then exit 1
