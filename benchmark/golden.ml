(* Golden logical digests at the default seed: per workload and size, the
   MD5 of the golden prefix's log (victims, detection rounds and distances
   of each episode) and of the output after it (the transformer's tree,
   the marker's tree, or the flat register file).  A run at the default
   seed whose digest differs has changed the program's behaviour, not its
   speed. *)

let default_seed = 1

let table =
  [
    (("stabilize-sync-1k", Workloads.Full), "f35dccf69130c97afc339eaddfc0cd0b");
    (("campaign-random-256", Workloads.Full), "03f8fc95245c6064aa6b42cda7a61b9c");
    (("stabilize-async-512", Workloads.Full), "d41dff5eab4d67dfe2cce1426e80d443");
    (("election-grid-250k", Workloads.Full), "9a7f4c4a106ea527616470d003a9f75b");
    (("stabilize-sync-1k", Workloads.Toy), "e90e1548959c76e8f6414293cee498be");
    (("campaign-random-256", Workloads.Toy), "d68c4431557858a2f719796f78d06946");
    (("stabilize-async-512", Workloads.Toy), "c0e38007fe7d3f93cfc829d4388c9c05");
    (("election-grid-250k", Workloads.Toy), "07847816d14e6930d2b3a169ce2404bf");
  ]

let expected ~seed ~size name =
  if seed <> default_seed then None else List.assoc_opt (name, size) table
