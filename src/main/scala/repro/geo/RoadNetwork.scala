package repro.geo

import scala.collection.mutable
import scala.util.Random

/** A directed road segment `from -> to` with planar endpoint geometry.
  * `speedFactor` is the road-class speed multiplier (arterials fast, side
  * streets slow) applied by the trajectory simulator — the per-segment
  * structure that learned recovery methods can exploit and constant-speed
  * interpolation cannot.
  */
final case class Segment(
    id: Int,
    from: Int,
    to: Int,
    a: XY,
    b: XY,
    lengthM: Double,
    speedFactor: Double = 1.0,
) extends Serializable {
  /** Direction vector of the segment (entrance to exit). */
  def dir: XY = b - a
  /** `dir.norm`, computed once. */
  val dirNorm: Double = dir.norm
}

/** A directed road network G = (V, E) in a city-local planar frame (metres).
  *
  * Nodes are intersections; segments are directed edges with geometry. The
  * whole structure is immutable and Serializable so it can be broadcast to
  * executors once and shared by every trajectory task. No segment is
  * shorter than the chord between its nodes, which `ShortestPath`'s
  * goal-directed searches rely on.
  */
final class RoadNetwork(
    val name: String,
    val nodes: Array[XY],
    val segments: Array[Segment],
) extends Serializable {

  segments.foreach(s => require(s.lengthM >= nodes(s.from).dist(nodes(s.to)),
    s"$name: segment ${s.id} is ${s.lengthM} m long, shorter than the chord between nodes ${s.from} and ${s.to}"))

  val numNodes: Int = nodes.length
  val numSegments: Int = segments.length
  /** The longest segment's length, the scale of the models' length features. */
  val maxSegLen: Double = segments.map(_.lengthM).max

  /** Bounding box of the intersections: the frame the learned models
    * normalise planar coordinates to [0,1] in.
    */
  val minX: Double = nodes.map(_.x).min
  val maxX: Double = nodes.map(_.x).max
  val minY: Double = nodes.map(_.y).min
  val maxY: Double = nodes.map(_.y).max
  def normX(x: Double): Double = (x - minX) / math.max(1e-9, maxX - minX)
  def normY(y: Double): Double = (y - minY) / math.max(1e-9, maxY - minY)
  def denormX(v: Double): Double = v * (maxX - minX) + minX
  def denormY(v: Double): Double = v * (maxY - minY) + minY

  /** Segment ids leaving each node. */
  val outSegments: Array[Array[Int]] = {
    val buf = Array.fill(numNodes)(mutable.ArrayBuffer.empty[Int])
    segments.foreach(s => buf(s.from) += s.id)
    buf.map(_.toArray)
  }

  /** Exit node and length of each segment in `outSegments`, aligned with
    * it: the node graph's arc heads and costs.
    */
  private[geo] val outHeads: Array[Array[Int]] = outSegments.map(_.map(segments(_).to))
  private[geo] val outLengths: Array[Array[Double]] = outSegments.map(_.map(segments(_).lengthM))

  /** The exit node's position of each segment: where the segment graph's
    * searches measure their heuristic.
    */
  private[geo] val exitPositions: Array[XY] = segments.map(s => nodes(s.to))

  /** `nextSegments` of every segment, computed once. */
  private[geo] val successors: Array[Array[Int]] = Array.tabulate(numSegments) { segId =>
    val s = segments(segId)
    val all = outSegments(s.to)
    val noUturn = all.filter { nid =>
      val nSeg = segments(nid)
      !(nSeg.from == s.to && nSeg.to == s.from)
    }
    if (noUturn.nonEmpty) noUturn else all
  }

  /** Successor segments of `segId` in the segment graph (those leaving its
    * exit node). The exact reverse segment is excluded — U-turns are not
    * normal route continuations — unless it is the ONLY way out (dead-end
    * roads), which keeps the segment graph strongly connected. The array is
    * shared by every caller and must not be written.
    */
  def nextSegments(segId: Int): Array[Int] = successors(segId)

  /** Position ratio (Definition 5) of `p`'s projection onto segment `segId`. */
  def projectRatio(p: XY, segId: Int): Double = {
    val s = segments(segId)
    Geo.projectRatio(p, s.a, s.b)
  }

  /** Planar point at position ratio `r` on segment `segId`. */
  def pointAt(segId: Int, r: Double): XY = {
    val s = segments(segId)
    Geo.lerp(s.a, s.b, r)
  }

  /** STR R-tree over the segments, built lazily on first spatial query. */
  @transient lazy val rtree: STRtree = STRtree.build(segments)

  /** Top-`k` nearest segments to `p` by perpendicular distance, with those distances. */
  def candidates(p: XY, k: Int): Candidates = rtree.nearest(p, k)

  /** The ids of `candidates(p, k)`. */
  def nearestSegments(p: XY, k: Int): Array[Int] = candidates(p, k).ids
}

object RoadNetwork {

  /** Lateral lane offset of each direction's geometry, metres. */
  val LaneOffsetM = 2.0

  /** Parameters of the synthetic city generator. */
  final case class CityConfig(
      name: String,
      gridW: Int,
      gridH: Int,
      spacingM: Double,
      jitterFrac: Double = 0.25,
      seed: Long = 7L,
  )

  /** Probability that a lattice edge outside the spanning tree is kept. */
  private final val ExtraEdgeKeepProb = 0.75

  /** Generate a synthetic city: a jittered `gridW x gridH` lattice of
    * intersections, connected by a random spanning tree (guaranteeing the
    * undirected graph — hence, with two-way roads, the directed graph — is
    * connected) plus each remaining lattice edge kept with probability
    * `ExtraEdgeKeepProb`. Every kept road contributes two directed segments.
    */
  def generate(cfg: CityConfig): RoadNetwork = {
    val rnd = new Random(cfg.seed)
    val w = cfg.gridW; val h = cfg.gridH
    val nodes = new Array[XY](w * h)
    val halfW = (w - 1) * cfg.spacingM / 2
    val halfH = (h - 1) * cfg.spacingM / 2
    for (j <- 0 until h; i <- 0 until w) {
      val jx = (rnd.nextDouble() * 2 - 1) * cfg.jitterFrac * cfg.spacingM
      val jy = (rnd.nextDouble() * 2 - 1) * cfg.jitterFrac * cfg.spacingM
      nodes(j * w + i) = XY(i * cfg.spacingM - halfW + jx, j * cfg.spacingM - halfH + jy)
    }
    // Undirected lattice edges.
    val edges = mutable.ArrayBuffer.empty[(Int, Int)]
    for (j <- 0 until h; i <- 0 until w) {
      val u = j * w + i
      if (i + 1 < w) edges += ((u, u + 1))
      if (j + 1 < h) edges += ((u, u + w))
    }
    val shuffled = rnd.shuffle(edges.toVector)
    // Union-find spanning tree: tree edges always kept, the rest sampled.
    val parent = Array.tabulate(w * h)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }; r }
    val kept = mutable.ArrayBuffer.empty[(Int, Int)]
    shuffled.foreach { case (u, v) =>
      val ru = find(u); val rv = find(v)
      if (ru != rv) { parent(ru) = rv; kept += ((u, v)) }
      else if (rnd.nextDouble() < ExtraEdgeKeepProb) kept += ((u, v))
    }
    // Road-class speed factors: every 4th grid line is an arterial (fast),
    // lines two off arterials are side streets (slow), the rest normal; a
    // small per-road perturbation on top. Both directions share the factor.
    def gridLine(u: Int, v: Int): Int = {
      val (ux, uy) = (u % w, u / w); val (vx, vy) = (v % w, v / w)
      if (uy == vy) uy else if (ux == vx) ux + h else -1
    }
    // Each direction's geometry is offset ~2 m to the right of travel
    // (right-hand traffic lanes): vehicles — and hence their GPS points —
    // sit closer to their own direction's polyline, which is what makes
    // nearest-segment matching ~70% rather than a 50/50 direction coin
    // flip (the paper's Fig. 2 top-1 ratio).
    def laneShift(a: XY, b: XY): XY = {
      val d = b - a; val n = d.norm
      if (n < 1e-9) XY(0, 0) else XY(d.y / n * LaneOffsetM, -d.x / n * LaneOffsetM)
    }
    val segs = mutable.ArrayBuffer.empty[Segment]
    kept.foreach { case (u, v) =>
      val len = nodes(u).dist(nodes(v))
      val line = gridLine(u, v)
      val base = if (line >= 0 && line % 4 == 0) 1.6
                 else if (line >= 0 && line % 4 == 2) 0.65
                 else 1.0
      val f = base * (0.95 + 0.1 * rnd.nextDouble())
      val s1 = laneShift(nodes(u), nodes(v))
      segs += Segment(segs.length, u, v, nodes(u) + s1, nodes(v) + s1, len, f)
      val s2 = laneShift(nodes(v), nodes(u))
      segs += Segment(segs.length, v, u, nodes(v) + s2, nodes(u) + s2, len, f)
    }
    new RoadNetwork(cfg.name, nodes, segs.toArray)
  }
}
