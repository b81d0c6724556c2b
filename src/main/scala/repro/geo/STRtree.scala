package repro.geo

import scala.collection.mutable

/** Axis-aligned bounding box in planar metres. */
final case class MBR(minX: Double, minY: Double, maxX: Double, maxY: Double) extends Serializable {
  def union(o: MBR): MBR =
    MBR(math.min(minX, o.minX), math.min(minY, o.minY), math.max(maxX, o.maxX), math.max(maxY, o.maxY))
  def centerX: Double = (minX + maxX) / 2
  def centerY: Double = (minY + maxY) / 2
}

/** The first `k` segments in (distance, id) order from a point, with their
  * point-to-segment distances in metres: the candidate set C_{p_i} (paper
  * Definition 8) and the distance every emission or proximity reads.
  */
final case class Candidates(ids: Array[Int], dists: Array[Double])

/** An STR-packed (Sort-Tile-Recursive, Leutenegger et al. [ICDE'97]) R-tree
  * over road segments, supporting exact top-k nearest-segment queries via
  * best-first branch-and-bound on MBR lower bounds.
  *
  * The paper indexes road segments with exactly this structure to obtain the
  * candidate set C_{p_i} (Definition 8).
  *
  * Nodes are numbered; node `v` has, in packing order, the segment ids of a
  * leaf or the child nodes of a branch in `items(v)`. Geometry is read from
  * flat arrays: `boxes(4v until 4v + 4)` is node v's (minX, minY, maxX,
  * maxY) and `ends(4s until 4s + 4)` segment s's (a.x, a.y, b.x, b.y).
  */
final class STRtree private (
    private val ends: Array[Double],
    private val boxes: Array[Double],
    private val leaf: Array[Boolean],
    private val items: Array[Array[Int]],
    private val root: Int,
) extends Serializable {
  import STRtree.{boxOffset, cutFor}

  /** The first `k` segments in (distance, id) order from `p`, whose
    * coordinates are finite, with their perpendicular (point-to-segment)
    * distances: what sorting every segment by distance, then id, and taking
    * `k` gives, ties included. A `k` above the number of segments returns
    * them all.
    *
    * Distances are `math.hypot` of an (x, y) offset, as `Geo.pointSegDist`
    * forms them. The best so far are held in (distance, id) order in the
    * result arrays; a segment enters when fewer than k are held or when it
    * sorts before the last. The frontier is keyed by the squared offset to
    * each box. Once k are held, a segment or box whose squared offset is at
    * least `cut`, `(worst · Slack)²`, is dropped without a `hypot`, and the
    * search stops when the smallest key reaches `cut`: the squared sum is
    * within about 3 ulp of the true square and `hypot` within 1 ulp of the
    * true norm, so that bound proves `hypot` strictly above the k-th
    * distance, for the segment or for every segment in the box. One at
    * exactly the k-th distance, which may hold a smaller id, is kept.
    */
  def nearest(p: XY, k: Int): Candidates = {
    if (leaf.isEmpty || k <= 0) return Candidates(Array.emptyIntArray, Array.emptyDoubleArray)
    val px = p.x; val py = p.y
    // Every segment is visited until m are held, so the arrays end full.
    val m = math.min(k, ends.length / 4)
    val ids = new Array[Int](m)
    val dists = new Array[Double](m)
    var n = 0
    // Frontier of tree nodes keyed by their boxes' squared offsets.
    val frontier = STRtree.frontiers.get
    frontier.clear()
    frontier.add(boxSq(root, px, py), root)
    // Squared offsets at or above `cut` sort after the m-th held entry;
    // NaN (no comparison holds) while fewer than m are held.
    var cut = Double.NaN
    while (!frontier.isEmpty) {
      val lb = frontier.peekKey
      val node = frontier.poll()
      if (lb >= cut) {
        frontier.clear() // nothing remaining can enter the first m
      } else if (leaf(node)) {
        val entries = items(node)
        var i = 0
        while (i < entries.length) {
          val sid = entries(i)
          val e = 4 * sid
          val ax = ends(e); val ay = ends(e + 1); val bx = ends(e + 2); val by = ends(e + 3)
          val t = Geo.projParam(px, py, ax, ay, bx, by)
          val dx = px - (ax + (bx - ax) * t); val dy = py - (ay + (by - ay) * t)
          if (!(dx * dx + dy * dy >= cut)) {
            val d = math.hypot(dx, dy)
            if (n < m || d < dists(m - 1) || d == dists(m - 1) && sid < ids(m - 1)) {
              if (n < m) n += 1
              var j = n - 1
              while (j > 0 && (dists(j - 1) > d || dists(j - 1) == d && ids(j - 1) > sid)) {
                dists(j) = dists(j - 1); ids(j) = ids(j - 1); j -= 1
              }
              dists(j) = d; ids(j) = sid
              if (n == m) cut = cutFor(dists(m - 1))
            }
          }
          i += 1
        }
      } else {
        val children = items(node)
        var i = 0
        while (i < children.length) {
          val c = children(i)
          val sq = boxSq(c, px, py)
          if (!(sq >= cut)) frontier.add(sq, c)
          i += 1
        }
      }
    }
    Candidates(ids, dists)
  }

  /** Squared offset from (px, py) to node v's box (0.0 if inside). */
  private def boxSq(v: Int, px: Double, py: Double): Double = {
    val dx = boxOffset(px, boxes(4 * v), boxes(4 * v + 2))
    val dy = boxOffset(py, boxes(4 * v + 1), boxes(4 * v + 3))
    dx * dx + dy * dy
  }
}

object STRtree {
  private val Capacity = 16

  /** This thread's `nearest` frontier, reused by every query; a query
    * clears it first.
    */
  private val frontiers = ThreadLocal.withInitial[Heap](() => new Heap)

  /** Relative margin of the squared-offset rejection in `nearest`; the
    * rounding it covers is about 1e-15.
    */
  private final val Slack = 1 + 1e-9

  /** The squared offset at or above which a candidate is strictly farther
    * than `worst`: `(worst · Slack)²` when that is a finite normal number;
    * for `worst` 0.0 the least positive double, as a non-zero square proves
    * a non-zero `hypot`; else NaN, so that every candidate goes through
    * `hypot`.
    */
  private def cutFor(worst: Double): Double = {
    val w = worst * Slack
    val c = w * w
    if (c >= java.lang.Double.MIN_NORMAL && c < Double.PositiveInfinity) c
    else if (worst == 0.0) Double.MinPositiveValue
    else Double.NaN
  }

  /** How far `x` lies outside [lo, hi] (0.0 inside). */
  private def boxOffset(x: Double, lo: Double, hi: Double): Double =
    if (x < lo) lo - x else if (x > hi) x - hi else 0.0

  private def segMbr(s: Segment): MBR =
    MBR(math.min(s.a.x, s.b.x), math.min(s.a.y, s.b.y), math.max(s.a.x, s.b.x), math.max(s.a.y, s.b.y))

  /** STR bulk load: sort by centre x, tile into vertical slices, sort each
    * slice by centre y, pack runs of `Capacity`; repeat one level up until a
    * single root remains.
    */
  def build(segments: Array[Segment]): STRtree = {
    require(segments.nonEmpty, "cannot build an R-tree over zero segments")
    val mbrs = mutable.ArrayBuffer.empty[MBR]
    val leaf = mutable.ArrayBuffer.empty[Boolean]
    val items = mutable.ArrayBuffer.empty[Array[Int]]
    def level(entries: Array[(MBR, Int)], leaves: Boolean): Array[(MBR, Int)] =
      pack(entries).map { case (mbr, its) =>
        mbrs += mbr; leaf += leaves; items += its
        (mbr, mbrs.length - 1)
      }
    var nodes = level(segments.map(s => (segMbr(s), s.id)), leaves = true)
    while (nodes.length > 1) nodes = level(nodes, leaves = false)
    val ends = new Array[Double](4 * segments.length)
    segments.foreach { s =>
      ends(4 * s.id) = s.a.x; ends(4 * s.id + 1) = s.a.y; ends(4 * s.id + 2) = s.b.x; ends(4 * s.id + 3) = s.b.y
    }
    val boxes = mbrs.toArray.flatMap(b => Array(b.minX, b.minY, b.maxX, b.maxY))
    new STRtree(ends, boxes, leaf.toArray, items.toArray, nodes(0)._2)
  }

  /** Groups of at most `Capacity` entries, with each group's bounding box. */
  private def pack(entries: Array[(MBR, Int)]): Array[(MBR, Array[Int])] = {
    val n = entries.length
    val nNodes = math.ceil(n.toDouble / Capacity).toInt
    val nSlices = math.max(1, math.ceil(math.sqrt(nNodes.toDouble)).toInt)
    val perSlice = math.max(1, math.ceil(n.toDouble / nSlices).toInt) // entries per vertical slice
    val byX = entries.sortBy(_._1.centerX)
    val out = mutable.ArrayBuffer.empty[(MBR, Array[Int])]
    byX.grouped(perSlice).foreach { slice =>
      slice.sortBy(_._1.centerY).grouped(Capacity).foreach { grp =>
        out += ((grp.map(_._1).reduce(_ union _), grp.map(_._2)))
      }
    }
    out.toArray
  }
}
