(* ASCII plots, SVG scatter figures, pairplots. *)

open Sider_linalg
open Sider_data
open Sider_core
open Sider_viz
open Test_helpers

let has_sub s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

let count_sub s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i acc =
    if i + lsub > ls then acc
    else if String.sub s i lsub = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* --- Ascii_plot -------------------------------------------------------------- *)

let test_ascii_render_basic () =
  let s =
    Ascii_plot.render ~width:40 ~height:10 ~title:"t" ~xlabel:"xx" ~ylabel:"yy"
      [ { Ascii_plot.points = [| (0.0, 0.0); (1.0, 1.0) |]; glyph = 'o';
          name = "pts" } ]
  in
  check_true "title" (has_sub s "t\n");
  check_true "xlabel" (has_sub s "x: xx");
  check_true "ylabel" (has_sub s "y: yy");
  check_true "glyph drawn" (has_sub s "o");
  check_true "legend" (has_sub s "o=pts");
  (* Frame: 10 canvas rows + 2 border rows. *)
  check_true "framed" (count_sub s "+----" >= 2)

let test_ascii_overdraw_order () =
  let pts = [| (0.0, 0.0) |] in
  let s =
    Ascii_plot.render ~width:11 ~height:5
      [ { Ascii_plot.points = pts; glyph = 'a'; name = "a" };
        { Ascii_plot.points = pts; glyph = 'b'; name = "b" } ]
  in
  check_true "later series wins" (not (has_sub s "a\n") || true);
  (* The canvas cell holds 'b', never 'a'. *)
  let lines = String.split_on_char '\n' s in
  let canvas =
    List.filter (fun l -> String.length l > 0 && l.[0] = '|') lines
  in
  check_true "b visible" (List.exists (fun l -> String.contains l 'b') canvas);
  check_true "a hidden" (not (List.exists (fun l -> String.contains l 'a') canvas))

let test_ascii_degenerate_range () =
  (* A single point must not divide by zero. *)
  let s =
    Ascii_plot.render ~width:10 ~height:4
      [ { Ascii_plot.points = [| (2.0, 3.0) |]; glyph = '*'; name = "p" } ]
  in
  check_true "rendered" (has_sub s "*")

let test_ascii_nonfinite_filtered () =
  let s =
    Ascii_plot.render ~width:10 ~height:4
      [ { Ascii_plot.points = [| (nan, 0.0); (1.0, 1.0); (infinity, 2.0) |];
          glyph = '*'; name = "p" } ]
  in
  check_true "finite point rendered" (has_sub s "*")

let test_ascii_session_render () =
  let ds = Synth.three_d () in
  let sess = Session.create ds in
  let s = Ascii_plot.render_session ~selection:[| 0; 1; 2 |] sess in
  check_true "selection glyph" (has_sub s "#");
  check_true "data glyph" (has_sub s "o");
  check_true "axis label" (has_sub s "PCA1")

let test_ascii_histogram () =
  let s =
    Ascii_plot.histogram ~bins:4 ~title:"h"
      [| 0.0; 0.1; 0.2; 0.9; 1.0; 1.0; 1.0 |]
  in
  check_true "title" (has_sub s "h\n");
  check_true "bars" (has_sub s "#");
  check_true "4 bins" (List.length (String.split_on_char '\n' s) >= 5)

(* --- Svg ------------------------------------------------------------------------ *)

let test_svg_well_formed () =
  let svg =
    Svg.render ~title:"T" ~xlabel:"X" ~ylabel:"Y"
      [ Svg.Points (Svg.data_style, [| (0.0, 0.0); (1.0, 2.0) |]) ]
  in
  check_true "svg open" (has_sub svg "<svg xmlns");
  check_true "svg close" (has_sub svg "</svg>");
  check_true "circles" (count_sub svg "<circle" = 2);
  check_true "title text" (has_sub svg ">T</text>");
  check_true "balanced tags"
    (count_sub svg "<text" = count_sub svg "</text>")

let test_svg_layers () =
  let e =
    Sider_stats.Ellipse.of_moments ~mean:[| 0.0; 0.0 |]
      ~cov:(Mat.identity 2) ()
  in
  let svg =
    Svg.render
      [ Svg.Segments ("#aaa", [| ((0.0, 0.0), (1.0, 1.0)) |]);
        Svg.Points (Svg.background_style, [| (0.5, 0.5) |]);
        Svg.Ellipse_outline ("#00f", true, e) ]
  in
  check_true "line" (has_sub svg "<line");
  check_true "dashed ellipse" (has_sub svg "stroke-dasharray");
  check_true "path" (has_sub svg "<path")

let test_svg_session_figure () =
  let ds = Synth.three_d () in
  let sess = Session.create ds in
  let svg = Svg.session_figure ~selection:(Dataset.class_indices ds "A") sess in
  check_true "has background circles" (count_sub svg "<circle" > 300);
  check_true "has displacement lines" (count_sub svg "<line" > 150);
  check_true "has ellipses" (count_sub svg "<path" = 2)

let test_svg_write_file () =
  let dir = Filename.temp_file "sider" "" in
  Sys.remove dir;
  let path = Filename.concat dir "fig.svg" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      Svg.write_file path "<svg></svg>";
      check_true "file written" (Sys.file_exists path))

(* --- Pairplot --------------------------------------------------------------------- *)

let test_pairplot_grid () =
  let m = Sider_rand.Sampler.normal_mat (Sider_rand.Rng.create 3) 50 3 in
  let svg = Pairplot.render ~cell:100 m in
  check_true "3x3 grid of rects" (count_sub svg "<rect" >= 9);
  (* Diagonal cells show the names. *)
  check_true "X1 label" (has_sub svg ">X1</text>");
  check_true "X3 label" (has_sub svg ">X3</text>")

let test_pairplot_subsampling () =
  let m = Sider_rand.Sampler.normal_mat (Sider_rand.Rng.create 4) 5000 2 in
  let svg = Pairplot.render ~max_points:100 m in
  (* 2 off-diagonal cells × 100 points. *)
  check_true "subsampled" (count_sub svg "<circle" = 200)

let test_pairplot_colors () =
  let m = Sider_rand.Sampler.normal_mat (Sider_rand.Rng.create 5) 10 2 in
  let colors = Array.init 10 (fun i -> if i < 5 then "#ff0000" else "#00ff00") in
  let svg = Pairplot.render ~colors m in
  check_true "red present" (has_sub svg "#ff0000");
  check_true "green present" (has_sub svg "#00ff00")

let test_pairplot_selection () =
  let ds = Synth.three_d () in
  let sess = Session.create ds in
  let svg =
    Pairplot.render_selection ~top:2 sess
      ~selection:(Dataset.class_indices ds "A")
  in
  check_true "selection red" (has_sub svg "#d62728");
  check_true "2x2 grid" (count_sub svg "</text>" = 2)

let test_pairplot_histograms () =
  let m = Sider_rand.Sampler.normal_mat (Sider_rand.Rng.create 6) 100 2 in
  let with_h = Pairplot.render ~histograms:true m in
  let without = Pairplot.render ~histograms:false m in
  (* Histogram bars are extra rects on the diagonal. *)
  check_true "histogram bars present"
    (count_sub with_h "<rect" > count_sub without "<rect")

let test_class_colors () =
  let colors = Pairplot.class_colors [| "a"; "b"; "a"; "c" |] in
  check_true "same class same color" (colors.(0) = colors.(2));
  check_true "different classes differ"
    (colors.(0) <> colors.(1) && colors.(1) <> colors.(3))

let suite =
  [
    case "ascii render basics" test_ascii_render_basic;
    case "ascii overdraw order" test_ascii_overdraw_order;
    case "ascii degenerate range" test_ascii_degenerate_range;
    case "ascii filters non-finite" test_ascii_nonfinite_filtered;
    case "ascii session render" test_ascii_session_render;
    case "ascii histogram" test_ascii_histogram;
    case "svg well formed" test_svg_well_formed;
    case "svg layers" test_svg_layers;
    case "svg session figure" test_svg_session_figure;
    case "svg write file" test_svg_write_file;
    case "pairplot grid" test_pairplot_grid;
    case "pairplot subsampling" test_pairplot_subsampling;
    case "pairplot colors" test_pairplot_colors;
    case "pairplot selection" test_pairplot_selection;
    case "pairplot histogram diagonal" test_pairplot_histograms;
    case "class colors" test_class_colors;
  ]
